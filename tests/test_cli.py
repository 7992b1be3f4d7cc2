import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import near_product_pure_state, near_product_rank_n_state
from sepcheck.canon import decompose_rank_n
from sepcheck.certify import separability_check
from sepcheck.cli import _load, build_parser, main
from sepcheck.fixtures import GeneratorSpec, generate, random_separable, werner_family
from sepcheck.numlin import Tolerances
from sepcheck.state import (
    BipartiteState,
    decomposition_from_json,
    load_state,
    partial_transpose,
    state_to_json,
    swap_parties,
    write_json,
)


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "sepcheck.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


@pytest.fixture()
def separable_doc(tmp_path):
    path = tmp_path / "sep.json"
    code = main(["generate", str(path), "--family", "separable-random",
                 "--dims", "3", "3", "--terms", "3", "--seed", "7"])
    assert code == 0
    return path


@pytest.fixture()
def tiles_doc(tmp_path):
    path = tmp_path / "tiles.json"
    assert main(["generate", str(path), "--family", "tiles-upb"]) == 0
    return path


class TestGenerate:
    def test_writes_state_and_sidecar(self, separable_doc):
        st = load_state(separable_doc)
        assert (st.dim_a, st.dim_b) == (3, 3)
        sidecar = json.loads((separable_doc.parent / "sep.json.decomp.json").read_text())
        assert len(sidecar["terms"]) == 3

    def test_deterministic_in_seed(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            main(["generate", str(path), "--family", "separable-random",
                  "--dims", "3", "3", "--terms", "3", "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_werner_p0_is_maximally_mixed(self, tmp_path):
        path = tmp_path / "w.json"
        assert main(["generate", str(path), "--family", "werner",
                     "--dims", "2", "2", "--p", "0.0"]) == 0
        st = load_state(path)
        assert np.allclose(st.rho, np.eye(4) / 4.0)

    def test_infeasible_spec_is_error(self, tmp_path):
        path = tmp_path / "x.json"
        assert main(["generate", str(path), "--family", "isotropic",
                     "--dims", "2", "3"]) == 3


class TestInspect:
    def test_tiles_report(self, tiles_doc, capsys):
        assert main(["inspect", str(tiles_doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 4
        assert report["rank_ta"] == 4
        assert report["ppt"] is True
        assert report["rank_sum_within_bound"] is True

    def test_one_by_one_state(self, tmp_path, capsys):
        doc = {"dim_a": 1, "dim_b": 1, "matrix": [[[1.0, 0.0]]]}
        path = tmp_path / "triv.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 1 and report["rank_ta"] == 1

    def test_npt_state_report(self, tmp_path, capsys):
        # Werner p = 1 is the Bell state: its partial transpose has one
        # negative eigenvalue, which counts toward rank_ta by its modulus
        st = werner_family(1.0)
        path = tmp_path / "bell.json"
        write_json(state_to_json(st), path)
        assert main(["inspect", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ppt"] is False
        assert report["rank_ta"] == np.linalg.matrix_rank(partial_transpose(st)) == 4

    def test_local_ranks_of_a_state_with_a_smaller_support(self, tmp_path, capsys):
        # a 2x3 state carried into 3x4: the local ranks are the widths of
        # the compression's isometries, the singular-value ranks of the two
        # reduced operators
        st, _ = random_separable(GeneratorSpec(dims=(2, 3), term_count=3, seed=11))
        lift = np.kron(np.eye(3, 2), np.eye(4, 3))
        path = tmp_path / "embedded.json"
        write_json(state_to_json(BipartiteState(3, 4, lift @ st.rho @ lift.T, normalized=True)), path)
        assert main(["inspect", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["local_rank_a"], report["local_rank_b"]) == (2, 3)

    def test_malformed_input_exits_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"dim_a\": 2}")
        assert main(["inspect", str(path)]) == 3

    def test_tolerance_flags_default_to_the_library_defaults(self, separable_doc):
        # the flags take their defaults from Tolerances, not from copies
        args = build_parser().parse_args(["inspect", str(separable_doc)])
        _load(args)
        assert args.tol == Tolerances()


class TestCertify:
    def test_separable_exit_zero_with_certificate(self, separable_doc, capsys):
        code = main(["certify", str(separable_doc), "--seed", "7"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "Separable"
        assert len(out["certificate"]) == 3
        cert_doc = json.loads(
            (separable_doc.parent / "sep.json.certificate.json").read_text())
        assert len(cert_doc["terms"]) == 3

    def test_tiles_exit_one(self, tiles_doc, capsys):
        code = main(["certify", str(tiles_doc), "--seed", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["reason"] == "NoEligibleVectors"

    def test_out_of_scope_state_exit_two(self, tmp_path, capsys):
        # full-rank product mixture: rank sum above the window, below the ball
        e = np.array([1.0, 0.0])
        v = np.kron(e, e)
        rho = 0.6 * np.outer(v, v) + 0.4 * np.eye(4) / 4.0
        doc = {"dim_a": 2, "dim_b": 2,
               "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.astype(complex)]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code = main(["certify", str(path)])
        assert code == 2

    def test_rank_n_breakdown_exit_two(self, tmp_path, capsys):
        path = tmp_path / "near.json"
        write_json(state_to_json(near_product_rank_n_state()), path)
        code = main(["certify", str(path), "--tol-psd", "1e-3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["reason"] == "BudgetExhausted"
        assert "rank_n_error" in out["diagnostics"]

    def test_decompose_canonical_mismatch_exits_two(self, tmp_path, capsys):
        # the same breakdown through decompose: inconclusive, not an error
        path = tmp_path / "near.json"
        write_json(state_to_json(near_product_rank_n_state()), path)
        code = main(["decompose", str(path), "--tol-psd", "1e-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("failed: joint diagonalization")

    def test_byte_identical_reruns(self, tmp_path):
        # end-to-end determinism through the real process entry point
        state = tmp_path / "s.json"
        r = run_cli(["generate", str(state), "--family", "separable-random",
                     "--dims", "3", "3", "--terms", "4", "--seed", "3"])
        assert r.returncode == 0
        first = run_cli(["certify", str(state), "--seed", "5"])
        cert_first = (tmp_path / "s.json.certificate.json").read_bytes()
        second = run_cli(["certify", str(state), "--seed", "5"])
        cert_second = (tmp_path / "s.json.certificate.json").read_bytes()
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert cert_first == cert_second

    def test_byte_identical_reruns_on_a_path_tracked_state(self, tmp_path):
        # six terms on 3x3 take the eligible search through path tracking
        state = tmp_path / "s.json"
        r = run_cli(["generate", str(state), "--family", "separable-random",
                     "--dims", "3", "3", "--terms", "6", "--seed", "3"])
        assert r.returncode == 0
        first = run_cli(["certify", str(state), "--seed", "5"])
        second = run_cli(["certify", str(state), "--seed", "5"])
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert '"method": "eligible_vectors"' in first.stdout


class TestOtherCommands:
    def test_ppt_exit_codes(self, tiles_doc, tmp_path):
        assert main(["ppt", str(tiles_doc)]) == 0
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi)
        doc = {"dim_a": 2, "dim_b": 2,
               "matrix": [[[float(z), 0.0] for z in row] for row in rho]}
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(doc))
        assert main(["ppt", str(path)]) == 1

    def test_decompose_command(self, separable_doc, tmp_path, capsys):
        out = tmp_path / "dec.json"
        code = main(["decompose", str(separable_doc), "--out", str(out), "--seed", "2"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["terms"]) == 3
        assert doc["residual"] <= 1e-8

    def test_decompose_without_a_direction_exits_two(self, separable_doc, monkeypatch):
        import sepcheck.canon
        from sepcheck.errors import DirectionNotFound

        def fail(*args, **kwargs):
            raise DirectionNotFound("no full-rank direction")

        monkeypatch.setattr(sepcheck.canon, "find_full_rank_direction", fail)
        assert main(["decompose", str(separable_doc), "--seed", "2"]) == 2

    def test_decompose_exit_codes_off_the_rank_n_path(self, tmp_path, capsys):
        # the Bell state (Werner p = 1) is NPT; the maximally mixed 2x2 state
        # has rank 4, above its Bob dimension, so no rank-N decomposition
        bell, mixed = tmp_path / "bell.json", tmp_path / "mixed.json"
        for path, p in ((bell, "1.0"), (mixed, "0.0")):
            assert main(["generate", str(path), "--family", "werner",
                         "--dims", "2", "2", "--p", p]) == 0
        capsys.readouterr()
        assert main(["decompose", str(bell)]) == 1
        assert capsys.readouterr().err.startswith("entangled:")
        assert main(["decompose", str(mixed)]) == 2
        assert capsys.readouterr().err.startswith("failed: rank 4 exceeds")

    def test_decompose_rank_below_bob_rank_exits_one(self, tmp_path, capsys):
        # the loosened PSD floor lets the entangled state through the PPT
        # gate, and the rank gate convicts it
        path = tmp_path / "pure.json"
        write_json(state_to_json(near_product_pure_state()), path)
        assert main(["decompose", str(path), "--tol-psd", "1e-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entangled: rank 1 below Bob rank 2")

    def test_eligible_vectors_outside_the_window_exits_two(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        assert main(["generate", str(path), "--family", "werner",
                     "--dims", "2", "2", "--p", "0.0"]) == 0
        capsys.readouterr()
        assert main(["eligible-vectors", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inconclusive: kernel dims 0 + 0")

    def test_eligible_vectors_on_tiles(self, tiles_doc, capsys):
        code = main(["eligible-vectors", str(tiles_doc), "--seed", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["count"] == 0
        assert out["exhaustive"] is True

    def test_eligible_vectors_on_a_swapped_state(self, tmp_path, capsys):
        # the 4x2 party swap of a planted 2x4 state: the search runs with
        # Alice on the smaller side and prints the vectors in the 4x2 frame
        st, _ = random_separable(GeneratorSpec(dims=(2, 4), term_count=5, seed=0))
        path = tmp_path / "swapped.json"
        write_json(state_to_json(swap_parties(st)), path)
        assert main(["eligible-vectors", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["count"], out["exhaustive"]) == (5, True)
        assert {(len(v["e"]), len(v["f"])) for v in out["vectors"]} == {(4, 2)}

    def test_bsa_command(self, separable_doc, capsys):
        sidecar = str(separable_doc) + ".decomp.json"
        code = main(["bsa", str(separable_doc), "--projectors", sidecar])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(out["lambda"] - 1.0) < 1e-6

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPCHECK_SEED", "11")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["generate", str(a), "--dims", "2", "2", "--terms", "2"])
        monkeypatch.setenv("SEPCHECK_SEED", "12")
        main(["generate", str(b), "--dims", "2", "2", "--terms", "2"])
        assert a.read_bytes() != b.read_bytes()
        c = tmp_path / "c.json"
        main(["generate", str(c), "--dims", "2", "2", "--terms", "2", "--seed", "11"])
        assert a.read_bytes() == c.read_bytes()


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


class TestErrorsExitThree:
    # exit 2 means "inconclusive", so a usage error must not take argparse's 2
    @pytest.mark.parametrize("argv, code", [
        ([], 3),
        (["frobnicate", "{state}"], 3),
        (["certify"], 3),
        (["certify", "{state}", "--tol-rank", "abc"], 3),
        (["generate", "{dir}/g.json", "--dims", "2"], 3),
        (["bsa", "{state}"], 3),
        (["--help"], 0),
        (["certify", "--help"], 0),
    ])
    def test_usage(self, separable_doc, argv, code):
        argv = [a.format(state=separable_doc, dir=separable_doc.parent) for a in argv]
        assert main(argv) == code

    @pytest.mark.parametrize("argv, env_seed", [
        (["certify", "{state}", "--tol-rank", "0.5"], None),
        (["generate", "{dir}/g.json", "--tol-psd", "-1"], None),
        (["certify", "{state}"], "abc"),
        (["inspect", "{dir}/nonnumeric.json"], None),
    ])
    def test_bad_flag_environment_or_state(self, separable_doc, capsys, monkeypatch,
                                           argv, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("SEPCHECK_SEED", env_seed)
        bad = {"dim_a": 1, "dim_b": 1, "matrix": [[["x", 0.0]]]}
        (separable_doc.parent / "nonnumeric.json").write_text(json.dumps(bad))
        argv = [a.format(state=separable_doc, dir=separable_doc.parent) for a in argv]
        assert main(argv) == 3
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["certify", "{state}", "--seed", "7", "--certificate-out", "{dir}/no/such/c.json"],
        ["generate", "{dir}/no/such/g.json", "--dims", "2", "2", "--terms", "2"],
        ["decompose", "{state}", "--seed", "2", "--out", "{dir}/no/such/d.json"],
    ])
    def test_unwritable_output_prints_no_result(self, separable_doc, capsys, argv):
        argv = [a.format(state=separable_doc, dir=separable_doc.parent) for a in argv]
        assert main(argv) == 3
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("defect", ["non_numeric", "nan_weight", "wrong_dims"])
    def test_bsa_rejects_bad_projectors(self, separable_doc, tmp_path, capsys, defect):
        doc = json.loads((tmp_path / "sep.json.decomp.json").read_text())
        if defect == "non_numeric":
            doc["terms"][1]["f"] = "x"
        elif defect == "nan_weight":
            doc["terms"][0]["weight"] = float("nan")
        else:
            # Bob vectors of a 3x2 state against the 3x3 input
            for term in doc["terms"]:
                term["f"] = term["f"][:2]
        projectors = tmp_path / "projectors.json"
        projectors.write_text(json.dumps(doc))
        assert main(["bsa", str(separable_doc), "--projectors", str(projectors)]) == 3
        assert_one_error_line(capsys)


def _bits(dec):
    terms = [(np.float64(w).tobytes(), pv.e.tobytes(), pv.f.tobytes()) for w, pv in dec.terms]
    return terms, np.float64(dec.residual).tobytes()


class TestDecompositionDocument:
    def test_sidecars_decode_bit_exact(self, separable_doc, tmp_path):
        def read(name):
            return decomposition_from_json(json.loads((tmp_path / name).read_text()), 3, 3)

        state = load_state(separable_doc)
        _, planted = generate(GeneratorSpec(dims=(3, 3), term_count=3, seed=7))
        assert _bits(read("sep.json.decomp.json")) == _bits(planted)

        assert main(["certify", str(separable_doc), "--seed", "7"]) == 0
        cert = separability_check(state, seed=7).certificate
        assert _bits(read("sep.json.certificate.json")) == _bits(cert)

        assert main(["decompose", str(separable_doc), "--seed", "2",
                     "--out", str(tmp_path / "dec.json")]) == 0
        assert _bits(read("dec.json")) == _bits(decompose_rank_n(state, seed=2))


class TestStartUp:
    # Runs ``python -m sepcheck.cli <args>`` (or only ``import sepcheck.cli``
    # when there are no args) and reports whether scipy.optimize, the path
    # tracker, the pipeline and the eligible search were loaded by the time
    # the command finished.
    PROBE = (
        "import json, runpy, sys\n"
        "code = 0\n"
        "if len(sys.argv) > 1:\n"
        "    try:\n"
        "        runpy.run_module('sepcheck.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "else:\n"
        "    import sepcheck.cli\n"
        "print(json.dumps([code] + [name in sys.modules for name in (\n"
        "    'scipy.optimize', 'sepcheck.homotopy', 'sepcheck.certify', 'sepcheck.vectors')]))\n"
    )

    def _probe(self, args):
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *args],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_commands_do_not_load_scipy_optimize(self, separable_doc, tiles_doc, tmp_path):
        # four terms on 3x3 take certify through the eligible search and NNLS;
        # like tiles, that search solves a single-kernel block system, so
        # neither loads the path tracker either
        eligible_doc = tmp_path / "four.json"
        assert main(["generate", str(eligible_doc), "--family", "separable-random",
                     "--dims", "3", "3", "--terms", "4", "--seed", "3"]) == 0
        commands = [
            ([], 0),
            (["generate", str(tmp_path / "g.json"), "--dims", "2", "2", "--terms", "2"], 0),
            (["inspect", str(separable_doc)], 0),
            (["ppt", str(separable_doc)], 0),
            (["certify", str(separable_doc), "--seed", "7"], 0),
            (["certify", str(eligible_doc), "--seed", "5"], 0),
            (["certify", str(tiles_doc), "--seed", "5"], 1),
            (["bsa", str(separable_doc), "--projectors", f"{separable_doc}.decomp.json"], 0),
        ]
        for args, code in commands:
            assert self._probe(args)[:3] == [code, False, False], args

    def test_inspect_and_ppt_do_not_load_the_solver(self, separable_doc):
        # both read one spectrum of rho^T_A and the state report; neither
        # needs the pipeline or the eligible search
        for args in ([], ["inspect", str(separable_doc)], ["ppt", str(separable_doc)]):
            assert self._probe(args) == [0, False, False, False, False], args

    def test_lazy_optimizers_match_scipy(self):
        import scipy.optimize

        import sepcheck.certify as certify

        def f(t):
            return (t - 0.3) ** 2

        kwargs = {"bounds": (0.0, 1.0), "method": "bounded",
                  "options": {"maxiter": 40, "xatol": 1e-10}}
        ours = certify.minimize_scalar(f, **kwargs)
        ref = scipy.optimize.minimize_scalar(f, **kwargs)
        assert (ours.x, ours.fun, ours.nfev) == (ref.x, ref.fun, ref.nfev)
