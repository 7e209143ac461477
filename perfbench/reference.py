"""Answers the benchmark checks rows against, all at coordinate scale 1.

``Y_RESCALED`` and ``Y_HAUSDORFF`` copy the frozen ladder that
``tests/test_acceptance.py`` gates within ``Y_GATE``; the benchmark keeps its
own copy so that it checks answers without importing the test suite.

``COST_Q`` holds the ``cost_q`` each row returned at the commit that
defined the benchmark; ``objective_rel`` divides by it, so it reads 1.0
there.  Keys are ``(workload, instance, n)``.
"""

Y_RESCALED = {6: 3.68781778292, 12: 3.932768321, 24: 4.077677155, 48: 4.15733357573}
Y_HAUSDORFF = {6: 0.128036880028, 12: 0.0743294209267, 24: 0.0403896391945, 48: 0.0211053790627}
Y_GATE = 5e-4

COST_Q = {
    ("y_ladder", 0, 6): 2.2666666666666666,
    ("y_ladder", 0, 12): 1.2888888888888888,
    ("y_ladder", 0, 24): 0.6928104575163407,
    ("y_ladder", 0, 48): 0.3600713012477779,
    ("wide_plan", 0, 32): 1.8890881524884058,
    ("certify_q", 0, 8): 7.0887003382639975,
    ("certify_q", 0, 16): 5.305811566175122,
    ("certify_q", 1, 8): 0.8835403730501736,
    ("certify_q", 1, 16): 0.2790575841342564,
    ("certify_q", 2, 8): 0.45510428408526177,
    ("certify_q", 2, 16): 0.3404162130793383,
    ("certify_q", 3, 8): 0.09171129595865533,
    ("certify_q", 3, 16): 0.030344458917436992,
}
