"""The package's public namespace."""
import rigidkit


def test_every_public_name_resolves():
    assert [n for n in rigidkit.__all__ if not hasattr(rigidkit, n)] == []
    assert len(set(rigidkit.__all__)) == len(rigidkit.__all__)
    assert {"ypr_to_quat", "ypr_to_matrix"} <= set(rigidkit.__all__)


def test_scipy_loads_only_for_a_solve():
    import subprocess
    import sys

    probe = ("import sys, rigidkit\n"
             "loaded = ['scipy' in sys.modules]\n"
             "from rigidkit.cli import main\n"
             "try:\n"
             "    main(['jacobian-check', '--samples', '2'])\n"
             "except SystemExit as exc:\n"
             "    assert exc.code in (0, None), exc.code\n"
             "loaded.append('scipy' in sys.modules)\n"
             "g = rigidkit.synth_graph('grid2d', 9, (0.05, 0.01), 1)[1]\n"
             "rigidkit.optimize(g, rigidkit.SolverConfig(max_iterations=1))\n"
             "loaded.append('scipy' in sys.modules)\n"
             "print('scipy loaded:', loaded)\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(__import__("os").environ,
                                              PYTHONPATH=rigidkit.__path__[0] + "/.."))
    assert out.stdout.splitlines()[-1] == "scipy loaded: [False, False, True]"
