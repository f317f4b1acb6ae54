open Mpk_jit

type row = { program : string; original : float; sdcg : float; libmpk : float }

let rows () =
  List.map
    (fun prog ->
      let reference = Octane.measure Engine.V8 Wx.No_wx prog in
      let score strategy = (Octane.run_program Engine.V8 strategy ~reference prog).Octane.score in
      {
        program = prog.Octane.name;
        original = score Wx.No_wx;
        sdcg = score Wx.Sdcg;
        libmpk = score Wx.Key_per_process;
      })
    Octane.programs

let geomean proj rows =
  exp (List.fold_left (fun acc r -> acc +. log (proj r)) 0.0 rows /. float_of_int (List.length rows))

(* Overall (geomean) overhead percentages of [rs]: (sdcg, libmpk). *)
let overall_overhead rs =
  let orig = geomean (fun r -> r.original) rs in
  let sdcg = geomean (fun r -> r.sdcg) rs in
  let mpk = geomean (fun r -> r.libmpk) rs in
  (orig -. sdcg) /. orig *. 100.0, (orig -. mpk) /. orig *. 100.0

let render () =
  let rs = rows () in
  let sdcg_oh, mpk_oh = overall_overhead rs in
  let rows_txt =
    List.map
      (fun r ->
        [
          r.program;
          Mpk_util.Table.float_cell r.original;
          Mpk_util.Table.float_cell r.sdcg;
          Mpk_util.Table.float_cell r.libmpk;
        ])
      rs
  in
  Printf.sprintf
    "Figure 13: v8 Octane scores — original vs SDCG vs libmpk (key/process)\n%s\n\
     Overall overhead: SDCG %.2f%% (paper 6.68%%), libmpk %.2f%% (paper 0.81%%)\n"
    (Mpk_util.Table.render
       ~aligns:[ Mpk_util.Table.Left; Right; Right; Right ]
       ~header:[ "program"; "v8 original"; "v8+SDCG"; "v8+libmpk" ]
       rows_txt)
    sdcg_oh mpk_oh
