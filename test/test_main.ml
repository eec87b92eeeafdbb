let () =
  Alcotest.run "lacr"
    [
      ("util", Test_util.suite);
      ("geometry", Test_geometry.suite);
      ("netlist", Test_netlist.suite);
      ("sim", Test_sim.suite);
      ("circuits", Test_circuits.suite);
      ("mcmf", Test_mcmf.suite);
      ("partition", Test_partition.suite);
      ("floorplan", Test_floorplan.suite);
      ("tilegraph", Test_tilegraph.suite);
      ("routing", Test_routing.suite);
      ("repeater", Test_repeater.suite);
      ("retime", Test_retime.suite);
      ("core", Test_core.suite);
      ("exact", Test_exact.suite);
      ("obs", Test_obs.suite);
      ("jsonx", Test_jsonx.suite);
      ("sanitize", Test_sanitize.suite);
      ("serve", Test_serve.suite);
      ("fuzz", Test_fuzz.suite);
      ("lint", Test_lint.suite);
    ]
