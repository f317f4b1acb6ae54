type t = {
  add_pipelined : float;
  wrpkru : float;
  wrpkru_drain : float;
  pipeline_refill_window : int;
  rdpkru : float;
  reg_move : float;
  tlb_hit : float;
  page_walk : float;
  mem_access : float;
  tlb_flush_all : float;
  tlb_flush_page : float;
  tlb_flush_ceiling : int;
  kernel_entry_exit : float;
  pkey_alloc_work : float;
  pkey_free_work : float;
  vma_find : float;
  vma_split_merge : float;
  vma_update : float;
  pte_scan : float;
  pte_update : float;
  page_fault : float;
  ipi_send : float;
  ipi_receive : float;
  task_work_add : float;
  task_work_run : float;
  context_switch : float;
}

(* Calibration targets (paper Table 1, measured on one touched page):
     pkey_alloc    = kernel_entry_exit + pkey_alloc_work          = 186.3
     pkey_free     = kernel_entry_exit + pkey_free_work           = 137.2
     mprotect 4KB  = entry + vma_find + vma_update + pte_scan
                     + pte_update + invlpg                        = 1094.0
     pkey_mprotect = mprotect + pkey bitmap check (charged in the
                     kernel's pkey layer)                         = 1104.9
   pte_update is sized so that mprotect over a *populated* 1 GiB region
   costs ~3.7M cycles, which reproduces the paper's Fig 14 Memcached
   collapse, while untouched mappings stay nearly flat (Fig 10). *)
let default =
  {
    add_pipelined = 0.25;
    wrpkru = 23.3;
    wrpkru_drain = 0.75;
    pipeline_refill_window = 16;
    rdpkru = 0.5;
    reg_move = 0.0;
    tlb_hit = 1.0;
    page_walk = 80.0;
    mem_access = 4.0;
    tlb_flush_all = 500.0;
    tlb_flush_page = 120.0;
    tlb_flush_ceiling = 33;
    kernel_entry_exit = 120.0;
    pkey_alloc_work = 66.3;
    pkey_free_work = 17.2;
    vma_find = 300.0;
    vma_split_merge = 450.0;
    vma_update = 539.5;
    pte_scan = 0.5;
    pte_update = 14.0;
    page_fault = 2000.0;
    ipi_send = 50.0;
    ipi_receive = 250.0;
    task_work_add = 50.0;
    task_work_run = 100.0;
    context_switch = 1000.0;
  }

let tlb_invalidate t ~pages =
  if pages <= 0 then 0.0
  else if pages <= t.tlb_flush_ceiling then float_of_int pages *. t.tlb_flush_page
  else t.tlb_flush_all
