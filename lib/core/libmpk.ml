module Vkey = Vkey
module Group = Group
module Key_cache = Key_cache
module Metadata = Metadata
module Mpk_heap = Mpk_heap
include Api
