import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import keysec
from keysec import Distribution, DensityMatrix, save_distribution, save_matrix
from keysec import cli
from keysec.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEEP = "[" * 5000 + "]" * 5000  # nesting the JSON decoder cannot recurse into


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(capsys, *argv):
    code, out, err = run(capsys, "--format", "machine", *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def dist_files(tmp_path):
    p = tmp_path / "p.dist"
    q = tmp_path / "q.dist"
    save_distribution(Distribution(1, [0.5, 0.5]), p)
    save_distribution(Distribution(1, [0.75, 0.25]), q)
    return str(p), str(q)


class TestBoundsCommand:
    def test_headline_invocation(self, capsys):
        doc = machine(capsys, "bounds", "--eps-bar", "1e-6",
                      "--key-len", "10000")
        assert doc["markov_bound_log10"] == pytest.approx(-2.0, abs=1e-9)
        assert doc["yuen_bound_log10"] == pytest.approx(-6.0, abs=0.01)
        assert doc["leaked_bits"] == pytest.approx(1505.15, abs=1.0)
        assert doc["leak_interval_f"] == pytest.approx(6.644, abs=1e-3)
        assert doc["required_epsilon_log10"] == pytest.approx(-3010.3, abs=0.1)
        assert "required_epsilon" not in doc  # below the printable floor

    def test_zero_distance(self, capsys):
        doc = machine(capsys, "bounds", "--eps-bar", "0", "--key-len", "8")
        assert doc["yuen_bound"] == 2.0 ** -8

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "bounds", "--eps-bar", "1.5",
                           "--key-len", "8")
        assert code == 2
        assert "eps-bar" in err

    def test_text_format_lines(self, capsys):
        code, out, _ = run(capsys, "bounds", "--eps-bar", "1e-6",
                           "--key-len", "10000")
        assert code == 0
        assert any(line.startswith("markov_bound_log10") for line
                   in out.splitlines())


class TestRateCommand:
    def test_large_block(self, capsys):
        doc = machine(capsys, "rate", "--s-target", "1e-14", "--n", "10000000")
        assert 1e-2 <= doc["rate"] < 1.0
        assert doc["key_len"] >= 1

    def test_no_solution_exit_code(self, capsys):
        code, _, err = run(capsys, "rate", "--s-target", "1e-14",
                           "--n", "10000")
        assert code == 3
        assert "no-solution" in err


class TestCouplingCommand:
    def test_pair_includes_oracle_when_support_allows(self, capsys, dist_files):
        p, q = dist_files
        doc = machine(capsys, "coupling", "--p", p, "--q", q)
        assert doc["statistical_distance"] == pytest.approx(0.25, abs=1e-12)
        assert doc["maximal_coupling_mismatch"] == pytest.approx(0.25, abs=1e-12)
        assert doc["oracle_min_mismatch"] == pytest.approx(0.25, abs=1e-9)

    def test_contradiction_mode(self, capsys, tmp_path):
        path = tmp_path / "pk.dist"
        save_distribution(Distribution.spike(4, 0.1, 0).expand_dense(), path)
        doc = machine(capsys, "coupling", "--p", str(path), "--contradiction")
        assert doc["independent_failure"] == 0.9375
        assert doc["delta_to_uniform"] == pytest.approx(0.1 * (1 - 2.0 ** -4),
                                                        abs=1e-12)

    def test_spike_above_dense_cap(self, capsys, tmp_path):
        p = tmp_path / "s24.dist"
        u = tmp_path / "u24.dist"
        save_distribution(Distribution.spike(24, 0.1, 3), p)
        save_distribution(Distribution.uniform(24), u)
        expected = 0.1 * (1 - 2.0 ** -24)
        for mode in (["--contradiction"], ["--q", str(u)]):
            doc = machine(capsys, "coupling", "--p", str(p), *mode)
            assert doc["maximal_coupling_mismatch"] == pytest.approx(
                expected, abs=1e-16)
            assert "oracle_min_mismatch" not in doc

    def test_pair_expands_each_spike_once(self, capsys, tmp_path,
                                          monkeypatch):
        # two spikes meet in closed form; a spike against a dense law is
        # expanded once for both the distance and the mismatch
        p, q = tmp_path / "p20.dist", tmp_path / "q20.dist"
        save_distribution(Distribution.spike(20, 1e-3, 5), p)
        save_distribution(Distribution.spike(20, 1e-6, 9), q)
        s12, d12 = tmp_path / "s12.dist", tmp_path / "d12.dist"
        save_distribution(Distribution.spike(12, 1e-3, 5), s12)
        save_distribution(Distribution.spike(12, 1e-6, 9).expand_dense(), d12)
        pairs = [(p, q, []), (s12, d12, [12]), (d12, s12, [12])]
        before = [machine(capsys, "coupling", "--p", str(a), "--q", str(b))
                  for a, b, _ in pairs]
        expand = Distribution.expand_dense
        expansions = []

        def counting(self):
            if self.is_spike:
                expansions.append(self.outcome_bits)
            return expand(self)

        monkeypatch.setattr(Distribution, "expand_dense", counting)
        for (a, b, expanded), doc in zip(pairs, before):
            expansions.clear()
            assert machine(capsys, "coupling", "--p", str(a),
                           "--q", str(b)) == doc
            assert expansions == expanded

    def test_pair_outcome_spaces_checked_before_expanding(self, capsys,
                                                         tmp_path):
        p, q = tmp_path / "p20.dist", tmp_path / "q24.dist"
        save_distribution(Distribution.spike(20, 1e-3, 5), p)
        save_distribution(Distribution.spike(24, 1e-3, 5), q)
        for a, b in ((p, q), (q, p)):
            code, _, err = run(capsys, "coupling", "--p", str(a),
                               "--q", str(b))
            assert code == 2
            assert "outcome spaces differ" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "coupling", "--p",
                           str(tmp_path / "nope.dist"), "--contradiction")
        assert code == 2
        assert "not found" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.dist"
        path.write_text("{not json")
        code, _, err = run(capsys, "coupling", "--p", str(path),
                           "--contradiction")
        assert code == 2
        assert "malformed" in err

    def test_pair_requires_q(self, capsys, dist_files):
        code, _, err = run(capsys, "coupling", "--p", dist_files[0])
        assert code == 2


class TestDetectCommand:
    def test_diagonal_states(self, capsys, tmp_path):
        rho = tmp_path / "rho.mat"
        sigma = tmp_path / "sigma.mat"
        save_matrix(DensityMatrix.diagonal(np.array([1.0, 0.0])), rho)
        save_matrix(DensityMatrix.diagonal(np.array([0.5, 0.5])), sigma)
        doc = machine(capsys, "detect", "--rho", str(rho),
                      "--sigma", str(sigma))
        assert doc["trace_distance"] == pytest.approx(0.5, abs=1e-10)
        assert doc["helstrom_min_error"] == pytest.approx(0.25, abs=1e-10)
        assert doc["overlap"] == pytest.approx(0.5, abs=1e-10)

    def test_with_povm(self, capsys, tmp_path):
        rho = tmp_path / "rho.mat"
        sigma = tmp_path / "sigma.mat"
        povm = tmp_path / "m.povm"
        save_matrix(DensityMatrix.diagonal(np.array([1.0, 0.0])), rho)
        save_matrix(DensityMatrix.diagonal(np.array([0.0, 1.0])), sigma)
        povm.write_text(
            '{"dim": 2, "elements": ['
            '[[1, 0], [0, 0], [0, 0], [0, 0]],'
            '[[0, 0], [0, 0], [0, 0], [1, 0]]]}')
        doc = machine(capsys, "detect", "--rho", str(rho),
                      "--sigma", str(sigma), "--povm", str(povm))
        assert doc["measured_distance"] == pytest.approx(1.0, abs=1e-10)


class TestAttackCommand:
    def test_kpa_mode(self, capsys, tmp_path):
        from keysec import BitString
        path = tmp_path / "pk.dist"
        save_distribution(
            Distribution.spike(8, 2.0 ** -4,
                               BitString.from_str("10110011")).expand_dense(),
            path)
        doc = machine(capsys, "attack", "--mode", "kpa", "--key-dist",
                      str(path), "--known-prefix", "1011")
        assert doc["map_guess"] == "0011"
        assert doc["map_posterior"] >= 0.49

    def test_ciphertext_mode(self, capsys, tmp_path):
        px = tmp_path / "px.dist"
        pk = tmp_path / "pk.dist"
        save_distribution(Distribution.spike(2, 1.0, 0), px)
        save_distribution(Distribution.uniform(2), pk)
        doc = machine(capsys, "attack", "--mode", "ciphertext-only",
                      "--ciphertext", "10", "--plaintext-dist", str(px),
                      "--key-dist", str(pk))
        assert doc["avg_success"] == 0.25
        assert doc["map_guess"] == "10"

    def test_hash_mode(self, capsys):
        doc = machine(capsys, "attack", "--mode", "hash", "--key", "101",
                      "--seed", "0110", "--out-len", "2")
        assert doc["output"] == "11"

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "attack", "--mode", "kpa")
        assert code == 2
        assert "kpa mode needs" in err


class TestRngtestCommand:
    def test_bernoulli_report(self, capsys):
        doc = machine(capsys, "rngtest", "--bias", "1e-4", "--block-len", "8",
                      "--count", "100000", "--seed", "1")
        assert doc["exactly_uniform"] is False
        assert doc["independent_failure"] == 1 - 2.0 ** -8
        assert doc["model_delta"] == pytest.approx(2.188e-4, rel=1e-3)

    def test_markov_model(self, capsys):
        doc = machine(capsys, "rngtest", "--model", "markov", "--p01", "0.4",
                      "--p11", "0.6", "--block-len", "4", "--count", "1000",
                      "--seed", "9")
        assert doc["model_delta"] > 0.0

    def test_bad_bias(self, capsys):
        code, _, err = run(capsys, "rngtest", "--bias", "0.7",
                           "--block-len", "4", "--count", "10", "--seed", "1")
        assert code == 2

    def test_impossible_count_is_an_input_error(self, capsys):
        # 10^15 blocks need 8 PB; numpy refuses the allocation at once
        code, out, err = run(capsys, "rngtest", "--bias", "0.1",
                             "--block-len", "4", "--count", str(10**15),
                             "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestReportCommand:
    def test_composite_report(self, capsys):
        doc = machine(capsys, "report")
        assert doc["markov_bound_log10"] == pytest.approx(-2.0, abs=1e-9)
        assert doc["pipeline_efficiency"] == 6e-6
        assert doc["contradiction_independent_failure"] == 0.9375
        assert doc["copy_channel_delta_joint"] == pytest.approx(
            doc["copy_channel_mismatch"], abs=1e-12)
        assert isinstance(doc["rate_n10000"], str)  # no-solution note
        assert 1e-2 <= doc["rate_n10000000"] < 1.0


class TestMachineModeRoundTrip:
    def test_identical_bytes_across_runs(self, capsys, dist_files):
        p, q = dist_files
        argv = ("--format", "machine", "coupling", "--p", p, "--q", q)
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("fmt, name", [("machine", "report_machine.json"),
                                           ("text", "report_text.txt")])
    def test_report_matches_golden(self, capsys, fmt, name):
        code, out, _ = run(capsys, "--format", fmt, "report")
        assert code == 0
        assert out.encode() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("case", sorted(
        p.stem for p in (GOLDEN / "cli").glob("*.json")))
    def test_subcommand_matches_golden(self, capsys, monkeypatch, case, fmt):
        # each fixture holds its argv (input paths relative to tests/golden)
        # and the exit code, stdout and stderr it gave in both formats
        doc = json.loads((GOLDEN / "cli" / f"{case}.json").read_text())
        monkeypatch.chdir(GOLDEN)
        code, out, err = run(capsys, "--format", fmt, *doc["argv"])
        assert (code, out, err) == (doc[fmt]["exit"], doc[fmt]["stdout"],
                                    doc[fmt]["stderr"])

    def test_report_deterministic(self, capsys):
        _, out1, _ = run(capsys, "--format", "machine", "report")
        _, out2, _ = run(capsys, "--format", "machine", "report")
        assert out1 == out2

    def test_inputs_echoed(self, capsys, dist_files):
        p, q = dist_files
        doc = machine(capsys, "coupling", "--p", p, "--q", q)
        assert doc["p_file"] == p
        assert doc["q_file"] == q

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_output_is_a_validation_error(self, capsys,
                                                     monkeypatch, value):
        # machine JSON never carries the non-standard NaN/Infinity tokens
        monkeypatch.setattr(cli, "_cmd_bounds",
                            lambda args: {"command": "bounds", "x": value})
        code, out, err = run(capsys, "--format", "machine", "bounds",
                             "--eps-bar", "0.5", "--key-len", "8")
        assert code == 2
        assert out == ""
        assert "not JSON compliant" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--eps-bar", "0.1", "--key-len", "8",
                  "--bogus", "1"])
        assert exc.value.code == 2


class TestDenseCapContradiction:
    def test_twenty_bit_spike_file(self, capsys, tmp_path):
        # the report reads the maximal coupling's diagonal, so no
        # 2^20 x 2^20 joint law is allocated
        eps = 2.0 ** -4
        path = tmp_path / "s20.dist"
        save_distribution(Distribution.spike(20, eps, 12345), path)
        doc = machine(capsys, "coupling", "--p", str(path), "--contradiction")
        expected = eps * (1 - 2.0 ** -20)
        assert doc["delta_to_uniform"] == pytest.approx(expected, rel=1e-12)
        assert doc["maximal_coupling_mismatch"] == pytest.approx(expected,
                                                                 rel=1e-12)


class TestMalformedFields:
    """Well-formed JSON with fields of the wrong type or range: exit 2."""

    @pytest.mark.parametrize("text", [
        '{"outcome_bits": 2, "spike": {"outcome": 5, "epsilon": 0.1}}',
        '{"outcome_bits": [1], "masses": [0.5, 0.5]}',
        '{"outcome_bits": 1e400, "masses": [0.5, 0.5]}',
        '{"outcome_bits": 1, "masses": [NaN, 1.0]}',
        # sizes must be JSON integers, masses JSON numbers
        '{"outcome_bits": 1.9, "masses": [0.5, 0.5]}',
        '{"outcome_bits": 1.0, "masses": [0.5, 0.5]}',
        '{"outcome_bits": true, "masses": [0.5, 0.5]}',
        '{"outcome_bits": "1", "masses": [0.5, 0.5]}',
        '{"outcome_bits": 1, "masses": [true, false]}',
        '{"outcome_bits": 1, "masses": ["0.5", 0.5]}',
        '{"outcome_bits": 1, "masses": [null, 1.0]}',
        '{"outcome_bits": 1, "masses": "01"}',
        pytest.param('{"outcome_bits": 1, "masses": [1%s, 0]}' % ("0" * 400),
                     id="401-digit-mass"),
        '{"outcome_bits": 2, "spike": {"outcome": "01", "epsilon": "0.1"}}',
        '{"outcome_bits": 2, "spike": {"outcome": "01", "epsilon": true}}',
        # outcome literals: only 0 and 1, exactly outcome_bits of them
        '{"outcome_bits": 3, "spike": {"outcome": "0b1", "epsilon": 0.1}}',
        '{"outcome_bits": 3, "spike": {"outcome": "1_0", "epsilon": 0.1}}',
        '{"outcome_bits": 2, "spike": {"outcome": " 1", "epsilon": 0.1}}',
        '{"outcome_bits": 2, "spike": {"outcome": "+1", "epsilon": 0.1}}',
        '{"outcome_bits": 2, "spike": {"outcome": "001", "epsilon": 0.1}}',
        # past the JSON decoder's recursion limit
        pytest.param("[" * 10**5 + "]" * 10**5, id="1e5-deep-array"),
        pytest.param('{"outcome_bits": 0, "masses": %s}' % DEEP,
                     id="5000-deep-masses"),
    ])
    def test_distribution_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.dist"
        path.write_text(text)
        code, out, err = run(capsys, "coupling", "--p", str(path),
                             "--contradiction")
        assert code == 2
        assert "malformed distribution file" in err
        assert out == ""

    def test_matrix_entries_not_a_list(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text('{"dim": 2, "entries": 5}')
        code, _, err = run(capsys, "detect", "--rho", str(path),
                           "--sigma", str(path))
        assert code == 2
        assert "malformed matrix file" in err

    @pytest.mark.parametrize("text", [
        '{"dim": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
        '{"dim": true, "entries": [[1, 0]]}',
        '{"dim": "1", "entries": [[1, 0]]}',
        '{"dim": 1, "entries": [[true, false]]}',
        '{"dim": 1, "entries": [["1", 0]]}',
        '{"dim": 1, "entries": [[1]]}',
        '{"dim": 1, "entries": [[1, 0, 0]]}',
        pytest.param('{"dim": 1, "entries": %s}' % DEEP,
                     id="5000-deep-entries"),
    ])
    def test_matrix_file_types(self, capsys, tmp_path, text):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        code, out, err = run(capsys, "detect", "--rho", str(path),
                             "--sigma", str(path))
        assert code == 2
        assert "malformed matrix file" in err
        assert out == ""

    def test_povm_dim_must_be_an_integer(self, capsys, tmp_path):
        rho = tmp_path / "rho.mat"
        save_matrix(DensityMatrix.diagonal(np.array([1.0, 0.0])), rho)
        povm = tmp_path / "m.povm"
        povm.write_text('{"dim": 2.0, "elements": '
                        '[[[1, 0], [0, 0], [0, 0], [1, 0]]]}')
        code, _, err = run(capsys, "detect", "--rho", str(rho), "--sigma",
                           str(rho), "--povm", str(povm))
        assert code == 2
        assert "malformed POVM file" in err

    @pytest.mark.parametrize("text", [
        pytest.param("[" * 10**5 + "]" * 10**5, id="1e5-deep-array"),
        pytest.param('{"dim": 1, "elements": %s}' % DEEP,
                     id="5000-deep-elements"),
    ])
    def test_povm_file_nested_too_deeply(self, capsys, tmp_path, text):
        rho = tmp_path / "rho.mat"
        save_matrix(DensityMatrix.diagonal(np.array([1.0, 0.0])), rho)
        povm = tmp_path / "m.povm"
        povm.write_text(text)
        code, out, err = run(capsys, "detect", "--rho", str(rho), "--sigma",
                             str(rho), "--povm", str(povm))
        assert code == 2
        assert "malformed POVM file" in err
        assert out == ""

    def test_povm_file_not_found(self, capsys, tmp_path):
        rho = tmp_path / "rho.mat"
        save_matrix(DensityMatrix.diagonal(np.array([1.0, 0.0])), rho)
        code, _, err = run(capsys, "detect", "--rho", str(rho), "--sigma",
                           str(rho), "--povm", str(tmp_path / "nope.povm"))
        assert code == 2
        assert "POVM file not found" in err


class TestFlagBoundaries:
    @pytest.mark.parametrize("argv, needle", [
        (("rate", "--s-target", "nan", "--n", "10000000"), "s_target"),
        (("rate", "--s-target", "1e-14", "--n", "10000000",
          "--leak-ec", "inf"), "leak_ec"),
        (("rngtest", "--block-len", "4", "--count", "10", "--seed", "-1"),
         "seed"),
        (("attack", "--mode", "hash", "--key", "", "--seed", "",
          "--out-len", "0"), "nonempty"),
        (("rate", "--s-target", "inf", "--n", "1000"), "s_target"),
        (("bounds", "--eps-bar", "1e-6", "--key-len", "1" + "0" * 400),
         "key length must be >= 1"),
        (("rate", "--s-target", "1e-14", "--n", "1" + "0" * 400),
         "block length n"),
        (("attack", "--mode", "ciphertext-only", "--ciphertext", "10"),
         "ciphertext-only mode needs"),
        (("attack", "--mode", "hash", "--key", "101"), "hash mode needs"),
    ])
    def test_validation_exit_code(self, capsys, argv, needle):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert needle in err
        assert out == ""


def test_module_entry_point_report():
    # ``python -m keysec.cli`` runs without the console script installed
    src = str(Path(keysec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "keysec.cli", "--format", "text", "report"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()
             if line.startswith("contradiction_maximal_mismatch")]
    assert lines == [["contradiction_maximal_mismatch", "0.09375"]]
