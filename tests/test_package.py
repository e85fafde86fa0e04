"""The package's public namespace."""
import rigidkit


def test_every_public_name_resolves():
    assert [n for n in rigidkit.__all__ if not hasattr(rigidkit, n)] == []
    assert len(set(rigidkit.__all__)) == len(rigidkit.__all__)
    assert {"ypr_to_quat", "ypr_to_matrix"} <= set(rigidkit.__all__)


def test_scipy_loads_only_for_a_sparse_normal_equations_return(tmp_path):
    import subprocess
    import sys

    # grid2d-600 has 1,797 free coordinates, above build_normal_equations'
    # 1,500-coordinate dense limit
    probe = ("import os, sys, rigidkit\n"
             "from rigidkit.cli import main\n"
             "def run(args):\n"
             "    try:\n"
             "        main(args)\n"
             "    except SystemExit as exc:\n"
             "        assert exc.code in (0, None), exc.code\n"
             "run(['jacobian-check', '--samples', '2'])\n"
             "loaded = [m in sys.modules for m in ('rigidkit._cholesky', 'scipy')]\n"
             "small = rigidkit.synth_graph('grid2d', 9, (0.05, 0.01), 1)[1]\n"
             "large = rigidkit.synth_graph('grid2d', 600, (0.05, 0.01), 1)[1]\n"
             "cfg = rigidkit.SolverConfig(max_iterations=2)\n"
             "rigidkit.optimize(small, cfg)\n"
             "rigidkit.optimize(large, cfg)\n"
             "rigidkit.step(small, cfg)\n"
             "assert type(rigidkit.build_normal_equations(small)[0]).__name__ == 'ndarray'\n"
             "path = os.path.join(sys.argv[1], 'in.g2o')\n"
             "rigidkit.write_g2o(small, path)\n"
             "run(['slam', path, os.path.join(sys.argv[1], 'out.g2o')])\n"
             "loaded += [m in sys.modules for m in ('rigidkit._cholesky', 'scipy')]\n"
             "h = rigidkit.build_normal_equations(large)[0]\n"
             "loaded += ['scipy' in sys.modules, type(h).__name__]\n"
             "print('loaded:', loaded)\n")
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                         text=True, check=True, env=dict(__import__("os").environ,
                                                         PYTHONPATH=rigidkit.__path__[0] + "/.."))
    assert out.stdout.splitlines()[-1] == \
        "loaded: [False, False, True, False, True, 'csr_matrix']"
