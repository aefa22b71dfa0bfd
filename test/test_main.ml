let () =
  Alcotest.run "cobegin-framework"
    [
      ("domains", Test_domains.suite);
      ("pstring", Test_pstring.suite);
      ("lang", Test_lang.suite);
      ("semantics", Test_semantics.suite);
      ("trans", Test_trans.suite);
      ("footprint", Test_footprint.suite);
      ("explore", Test_explore.suite);
      ("parallel", Test_parallel.suite);
      ("intern", Test_intern.suite);
      ("budget", Test_budget.suite);
      ("protocols", Test_protocols.suite);
      ("memory_model", Test_memory_model.suite);
      ("petri", Test_petri.suite);
      ("absint", Test_absint.suite);
      ("interfere", Test_interfere.suite);
      ("analysis", Test_analysis.suite);
      ("static", Test_static.suite);
      ("apps", Test_apps.suite);
      ("pipeline", Test_pipeline.suite);
      ("fault", Test_fault.suite);
      ("obs", Test_obs.suite);
      ("report", Test_report.suite);
      ("serve", Test_serve.suite);
      ("cli", Test_cli.suite);
      ("kernel", Test_kernel.suite);
    ]
