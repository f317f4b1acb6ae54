(** libmpk: a secure, scalable, semantic-gap-mitigated software
    abstraction for (simulated) Intel Memory Protection Keys.

    The main API lives here (see {!Api}); the building blocks are exposed
    as submodules for the experiments, checkers and case studies. *)

module Vkey = Vkey
module Group = Group
module Key_cache = Key_cache
module Metadata = Metadata

(** Exposed so the allocator's own tests can drive it without a
    simulated process; [mpk_malloc]/[mpk_free] are its one caller. *)
module Mpk_heap = Mpk_heap

include module type of struct
  include Api
end
