type t = { mem : Physmem.t; cores : Cpu.t array }

let create ?(costs = Costs.default) ?(cores = 8) ?(mem_mib = 4096) () =
  if cores <= 0 then invalid_arg "Machine.create: cores must be positive";
  let frames = mem_mib * 1024 * 1024 / Physmem.page_size in
  {
    mem = Physmem.create ~frames;
    cores = Array.init cores (fun id -> Cpu.create ~costs ~id ());
  }

let mem t = t.mem
let core_count t = Array.length t.cores

let core t i =
  if i < 0 || i >= Array.length t.cores then invalid_arg "Machine.core: bad index";
  t.cores.(i)

let cores t = t.cores

