"""CLI surface: record parsing, canonical output, exit codes, batch store."""

import concurrent.futures.process as pool_module
import io
import json
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobeig
from frobeig import report
from frobeig.cli import main
from frobeig.config import DEFAULT, MAX_POWER_CAP
from frobeig.corpus import CORPUS
from frobeig.errors import MalformedInput
from frobeig.report import (InputRecord, build_report_record, canonical_json,
                            content_key, effective_options, existing_keys,
                            parse_record, run_batch, settings_for)

from conftest import deep_grid_records


def subprocess_env():
    """os.environ with this checkout's src directory put in front of any
    PYTHONPATH already set, for a child interpreter."""
    src = str(Path(frobeig.__file__).resolve().parents[1])
    old = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + os.pathsep + old if old else src}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out.strip()
    return rc, (json.loads(out) if out else None)


# --- canonical serialization ---

def _canonical(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, Fraction)):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r} in report data")
            out[k] = _canonical(v)
        return out
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _oracle_json(obj):
    """canonical_json by way of a copy of obj with every number a string."""
    return json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.fractions(),
              st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25)


class TestCanonicalJson:
    def test_numbers_become_strings(self):
        s = canonical_json({"b": 2, "a": [Fraction(1, 2), 3, Fraction(4)]})
        assert s == '{"a":["1/2","3","4"],"b":"2"}'

    def test_bools_and_null_survive(self):
        assert canonical_json({"t": True, "n": None, "f": False}) == \
            '{"f":false,"n":null,"t":true}'

    def test_key_order_is_irrelevant(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_rejects_non_string_keys_and_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_json({1: "x"})
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    @settings(deadline=None, max_examples=300)
    @given(_values)
    def test_matches_the_oracle(self, value):
        assert canonical_json(value) == _oracle_json(value)
        assert canonical_json(value).isascii()

    @settings(deadline=None, max_examples=100)
    @given(_values, st.one_of(st.integers(), st.none(), st.booleans()),
           st.one_of(st.floats(), st.binary(), st.just(object())))
    def test_type_errors_match_the_oracle(self, value, key, unknown):
        for bad in ({"ok": value, key: 1}, [value, {"x": [unknown]}]):
            for encode in (canonical_json, _oracle_json):
                with pytest.raises(TypeError):
                    encode(bad)

    def test_reports_match_the_oracle(self):
        for e in CORPUS:
            rep = build_report_record(InputRecord(q=e.q,
                                                  coeffs=e.coefficients,
                                                  label=e.tag))
            assert canonical_json(rep) == _oracle_json(rep), e.tag
        for e, max_power in deep_grid_records():
            rep = build_report_record(InputRecord(q=e.q,
                                                  coeffs=e.coefficients,
                                                  label=e.tag),
                                      {"max_power": max_power})
            assert canonical_json(rep) == _oracle_json(rep), e.tag

    def test_importing_the_cli_loads_no_process_pool(self):
        # a serial batch never needs multiprocessing; only jobs > 1
        # imports the pool
        code = ("import sys, frobeig.report, frobeig.cli; "
                "print([m for m in ('multiprocessing', "
                "'concurrent.futures.process') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=subprocess_env())
        assert out.stdout.strip() == "[]"

    def test_mpmath_loads_only_for_root_isolation(self):
        # the quadforms kernels and the report layer run without mpmath;
        # the first validate isolates roots and imports it
        code = ("import sys, frobeig.report, frobeig.cli, frobeig.quadforms; "
                "before = 'mpmath' in sys.modules; "
                "from frobeig.weil import validate; validate(5, [5, -1, 1]); "
                "print(before, 'mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=subprocess_env())
        assert out.stdout.split() == ["False", "True"]


# --- input records ---

class TestParseRecord:
    def test_full_record(self):
        rec = parse_record({"q": 5, "coeffs": [5, -1, 1], "label": "e",
                            "cm_assertion": True,
                            "options": {"search_bound": 6}})
        assert rec.q == 5
        assert rec.coeffs == (5, -1, 1)
        assert rec.label == "e"
        assert rec.cm_assertion is True
        assert rec.option_dict == {"search_bound": 6}

    def test_string_integers_accepted(self):
        rec = parse_record({"q": "9", "coeffs": ["9", "-6", "1"]})
        assert rec.q == 9
        assert rec.coeffs == (9, -6, 1)

    @pytest.mark.parametrize("obj", [
        42,
        {"coeffs": [5, -1, 1]},                          # no q
        {"q": 5},                                        # no coeffs
        {"q": 5, "coeffs": [5, -1, 1, 1]},               # odd degree
        {"q": 5, "coeffs": [5, -1, 2]},                  # not monic
        {"q": 5, "coeffs": [1]},                         # degree 0
        {"q": 5, "coeffs": []},
        {"q": True, "coeffs": [5, -1, 1]},               # bool is not an int
        {"q": 5, "coeffs": [5, -1, 1], "label": 7},
        {"q": 5, "coeffs": [5, -1, 1], "cm_assertion": "yes"},
        {"q": 5, "coeffs": [5, -1, 1], "extra": 1},
        {"q": 5, "coeffs": [5, -1, 1], "options": {"bogus": 2}},
        {"q": 5, "coeffs": [5, -1, 1], "options": {"search_bound": 0}},
    ])
    def test_rejects(self, obj):
        with pytest.raises(MalformedInput):
            parse_record(obj)


class TestOptions:
    def test_layering_record_wins(self):
        opts = effective_options(DEFAULT, {"search_bound": 9},
                                 {"search_bound": 3, "max_power": 1})
        assert opts["search_bound"] == 3
        assert opts["max_power"] == 1
        assert opts["degree_cap"] == DEFAULT.degree_cap

    def test_max_power_capped_by_settings(self):
        with pytest.raises(MalformedInput):
            effective_options(DEFAULT, {"max_power": MAX_POWER_CAP + 1})

    def test_settings_for_clamps_low_ceiling(self):
        opts = effective_options(DEFAULT, {"precision_ceiling": 8})
        st = settings_for(opts, DEFAULT)
        assert st.precision_ceiling == DEFAULT.precision_start

    def test_content_key_sensitivity(self):
        rec = parse_record({"q": 5, "coeffs": [5, -1, 1]})
        opts = effective_options(DEFAULT)
        base = content_key(rec.echo(), opts, "0.1.0")
        assert len(base) == 64
        labeled = parse_record({"q": 5, "coeffs": [5, -1, 1], "label": "x"})
        assert content_key(labeled.echo(), opts, "0.1.0") != base
        assert content_key(rec.echo(), opts, "0.2.0") != base
        bumped = dict(opts, search_bound=opts["search_bound"] + 1)
        assert content_key(rec.echo(), bumped, "0.1.0") != base
        # same content twice -> same key
        again = parse_record({"coeffs": [5, -1, 1], "q": 5})
        assert content_key(again.echo(), opts, "0.1.0") == base


# --- single-record commands ---

class TestSingleCommands:
    def test_validate_accepts(self, capsys):
        rc, out = run_cli(capsys, "validate", "--q", "5",
                          "--coeffs", "5,-1,1")
        assert rc == 0
        assert out["accepted"] is True
        assert out["g"] == "1"

    def test_validate_modulus_rejection_exit_1(self, capsys):
        rc, out = run_cli(capsys, "validate", "--q", "4",
                          "--coeffs", "4,-5,1")
        assert rc == 1
        assert out["error"]["type"] == "RootModulusFailed"

    def test_not_prime_power_exit_1(self, capsys):
        rc, out = run_cli(capsys, "validate", "--q", "6",
                          "--coeffs", "6,-1,1")
        assert rc == 1
        assert out["error"]["type"] == "NotPrimePower"

    def test_malformed_coeffs_exit_2(self, capsys):
        rc, out = run_cli(capsys, "validate", "--q", "5", "--coeffs", "5,-1")
        assert rc == 2
        assert out["error"]["type"] == "MalformedInput"

    def test_missing_input_exit_2(self, capsys):
        rc, out = run_cli(capsys, "invariants")
        assert rc == 2

    def test_record_file_and_stdin(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "rec.json"
        path.write_text('{"q": 5, "coeffs": [5, -1, 1], "label": "E"}')
        rc, out = run_cli(capsys, "invariants", "--record", str(path))
        assert rc == 0
        assert out["input"]["label"] == "E"
        assert out["invariants"]["frobenius_rank"] == "1"
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        rc, out = run_cli(capsys, "validate", "--record", "-")
        assert rc == 0 and out["accepted"] is True

    def test_record_file_missing_exit_3(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "validate", "--record",
                          str(tmp_path / "absent.json"))
        assert rc == 3

    def test_record_file_bad_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text("{nope")
        rc, out = run_cli(capsys, "validate", "--record", str(path))
        assert rc == 2

    def test_eig_torsion_exit_1(self, capsys):
        # (X^2-2)^2 over q=2: two distinct real roots
        rc, out = run_cli(capsys, "eig", "--q", "2",
                          "--coeffs", "4,0,-4,0,1")
        assert rc == 1
        assert out["error"]["type"] == "TorsionDetected"

    def test_eig_fragment(self, capsys):
        rc, out = run_cli(capsys, "eig", "--q", "5", "--coeffs", "5,-1,1")
        assert rc == 0
        assert out["eig"]["rank"] == "2"
        assert out["eig"]["basis_labels"] == ["pi_1", "q"]

    def test_galois(self, capsys):
        rc, out = run_cli(capsys, "galois", "--q", "5",
                          "--coeffs", "5,-1,1")
        assert rc == 0
        assert out["galois"]["order"] == "2"
        assert out["galois"]["fully_certified"] is True

    def test_motives_worked_example(self, capsys):
        rc, out = run_cli(capsys, "motives", "--q", "3", "--coeffs", "3,0,1",
                          "--power", "4", "--codim", "2")
        assert rc == 0
        dec = out["decomposition"]
        assert dec["dims"] == ["36", "2", "32"]
        assert dec["total"] == "70"
        exotic = [o for o in dec["orbits"]
                  if o["classification"] == "EXOTIC"]
        assert len(exotic) == 1 and exotic[0]["orbit_size"] == "2"

    def test_motives_primitive(self, capsys):
        rc, out = run_cli(capsys, "motives", "--q", "3", "--coeffs", "3,0,1",
                          "--power", "4", "--codim", "2", "--primitive")
        assert rc == 0
        assert out["decomposition"]["dims"] == ["20", "2", "20"]

    def test_motives_bounds_exit_2(self, capsys):
        rc, _ = run_cli(capsys, "motives", "--q", "3", "--coeffs", "3,0,1",
                        "--power", "7", "--codim", "1")
        assert rc == 2
        rc, _ = run_cli(capsys, "motives", "--q", "3", "--coeffs", "3,0,1",
                        "--power", "2", "--codim", "3")
        assert rc == 2

    def test_decompose_grid(self, capsys):
        rc, out = run_cli(capsys, "decompose", "--q", "5",
                          "--coeffs", "5,-1,1")
        assert rc == 0
        # d=1: n in 0..1, d=2: n in 0..2
        assert len(out["decompositions"]) == 5
        d2n1 = [d for d in out["decompositions"]
                if d["d"] == "2" and d["n"] == "1"]
        assert d2n1[0]["dims"] == ["4", "0", "2"]

    def test_check_hypotheses_paths(self, capsys):
        rc, out = run_cli(capsys, "check-hypotheses", "--q", "3",
                          "--coeffs", "3,0,1")
        assert rc == 0
        assert out["hypothesis"]["verdict"] == "ALL_PASS"
        rc, out = run_cli(capsys, "check-hypotheses", "--q", "9",
                          "--coeffs", "9,6,1")
        assert rc == 0
        assert out["hypothesis"]["verdict"] == "FAIL"
        rc, out = run_cli(capsys, "check-hypotheses", "--q", "3",
                          "--coeffs", "27,0,27,0,9,0,1")
        assert rc == 0
        assert out["hypothesis"]["verdict"] == "PASS_CONDITIONAL_ON_CM"
        rc, out = run_cli(capsys, "check-hypotheses", "--q", "3",
                          "--coeffs", "27,0,27,0,9,0,1", "--assert-cm")
        assert rc == 0
        assert out["hypothesis"]["verdict"] == "ALL_PASS"

    def test_check_hypotheses_not_simple_exit_1(self, capsys):
        rc, out = run_cli(capsys, "check-hypotheses", "--q", "5",
                          "--coeffs", "25,-5,10,-1,1")
        assert rc == 1
        assert out["error"]["type"] == "NotSimple"

    def test_closed_stdout_exits_3_silently(self):
        # the reader is gone before the first write: the report's write
        # fails with EPIPE, and neither it nor the exit flush may print
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "frobeig.cli", "report", "--q", "3",
                 "--coeffs", "27,0,0,0,0,0,1", "--max-power", "4"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env=subprocess_env())
        finally:
            os.close(write_end)
        assert out.returncode == 3
        assert out.stderr == b""


# --- full report records ---

class TestReportRecord:
    def test_report_command_and_options_precedence(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({"q": 5, "coeffs": [5, -1, 1],
                                    "options": {"search_bound": 3}}))
        rc, out = run_cli(capsys, "report", "--record", str(path),
                          "--search-bound", "9", "--max-power", "2")
        assert rc == 0
        assert out["options"]["search_bound"] == "3"   # record wins
        assert out["options"]["max_power"] == "2"
        assert out["record_type"] == "report"

    def test_report_content(self):
        rec = parse_record({"q": 5, "coeffs": [5, -1, 1]})
        rep = build_report_record(rec)
        assert rep["status"]["undetermined"] == []
        assert rep["hypothesis"]["verdict"] == "ALL_PASS"
        preds = rep["signature_predictions"]
        assert len(preds) == 1 and preds[0]["d"] == 2
        assert preds[0]["rho"] == [1, 4]
        assert preds[0]["s_plus"] == 3 and preds[0]["s_minus"] == 1
        assert preds[0]["negative_prediction"] is False
        # byte-identical on recompute
        assert canonical_json(build_report_record(rec)) == \
            canonical_json(rep)

    def test_report_degrades_on_degree_cap(self):
        rec = parse_record({"q": 5, "coeffs": [25, -5, 6, -1, 1],
                            "options": {"degree_cap": 4}})
        rep = build_report_record(rec)
        assert rep["decompositions"] is None
        assert rep["hypothesis"] is None
        und = rep["status"]["undetermined"]
        assert "decompositions" in und and "galois" in und
        assert "invariants.frobenius_rank" in und
        assert rep["status"]["reasons"]["galois"] == "DegreeCapExceeded"
        # rank of the eigenvalue group needs no splitting field
        assert rep["eig"]["rank"] == 3

    def test_report_not_simple_hypothesis_flagged(self):
        rec = parse_record({"q": 5, "coeffs": [25, -5, 10, -1, 1],
                            "options": {"max_power": 1}})
        rep = build_report_record(rec)
        assert rep["hypothesis"] is None
        assert rep["status"]["reasons"]["hypothesis"] == "NotSimple"
        assert rep["decompositions"] is not None

    def test_env_ceiling_feeds_options(self, capsys, monkeypatch):
        monkeypatch.setenv("FROBEIG_MAX_PRECISION", "8192")
        rc, out = run_cli(capsys, "report", "--q", "5",
                          "--coeffs", "5,-1,1", "--max-power", "1")
        assert rc == 0
        assert out["options"]["precision_ceiling"] == "8192"

    def test_env_ceiling_validated_like_the_flag(self, capsys, monkeypatch):
        argv = ("report", "--q", "5", "--coeffs", "5,-1,1",
                "--max-power", "1")
        monkeypatch.setenv("FROBEIG_MAX_PRECISION", "abc")
        assert run_cli(capsys, *argv) == (2, {"error": {
            "type": "MalformedInput",
            "message": "option precision_ceiling must be an integer, "
                       "got 'abc'"}})
        monkeypatch.setenv("FROBEIG_MAX_PRECISION", "0")
        env = run_cli(capsys, *argv)
        monkeypatch.delenv("FROBEIG_MAX_PRECISION")
        assert env[0] == 2
        assert env == run_cli(capsys, *argv, "--precision-ceiling", "0")
        # a ceiling below the starting precision is raised to it
        monkeypatch.setenv("FROBEIG_MAX_PRECISION", "100")
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        assert out["options"]["precision_ceiling"] == \
            str(DEFAULT.precision_start)


# --- signature subcommands ---

def write_matrices(tmp_path, text):
    path = tmp_path / "mats.txt"
    path.write_text(text)
    return str(path)


class TestSignatureCli:
    def test_sig_triple(self, capsys, tmp_path):
        path = write_matrices(tmp_path, "3\n1 0 0\n0 -2 0\n0 0 3\n")
        rc, out = run_cli(capsys, "signature", "sig", path)
        assert rc == 0
        assert out["signature"] == ["2", "1", "0"]

    def test_sig_fraction_entries(self, capsys, tmp_path):
        path = write_matrices(tmp_path, "2\n1/2 0\n0 -3/4\n")
        rc, out = run_cli(capsys, "signature", "sig", path)
        assert rc == 0
        assert out["signature"] == ["1", "1", "0"]

    def test_sig_singular_exit_1(self, capsys, tmp_path):
        path = write_matrices(tmp_path, "2\n1 0\n0 0\n")
        rc, out = run_cli(capsys, "signature", "sig", path)
        assert rc == 1
        assert out["error"]["type"] == "NondegeneracyFailed"

    def test_sig_asymmetric_exit_1(self, capsys, tmp_path):
        path = write_matrices(tmp_path, "2\n1 2\n0 1\n")
        rc, out = run_cli(capsys, "signature", "sig", path)
        assert rc == 1
        assert out["error"]["type"] == "NotSymmetric"

    @pytest.mark.parametrize("text", [
        "",                              # no matrices
        "2\n1 0 0 1\n2\n1 0 0 1\n",      # sig wants exactly one
        "x\n1\n",                        # bad dimension header
        "2\n1 0 0\n",                    # short entry list
        "1\nfoo\n",                      # bad token
        "1\n1/0\n",                      # zero denominator
        "0\n",                           # nonpositive dimension
    ])
    def test_sig_parse_errors_exit_2(self, capsys, tmp_path, text):
        path = write_matrices(tmp_path, text)
        rc, _ = run_cli(capsys, "signature", "sig", path)
        assert rc == 2

    def test_transfer_certificate(self, capsys, tmp_path):
        path = write_matrices(
            tmp_path,
            "2\n1 0\n0 1\n2\n2 0\n0 3\n2\n1 0\n0 -1\n2\n2 0\n0 -3\n")
        rc, out = run_cli(capsys, "signature", "transfer", path)
        assert rc == 0
        assert out["verdict"] == "SignaturesEqual"
        assert out["signature"] == ["1", "1"]
        assert out["charpoly"] == ["6", "-5", "1"]

    def test_transfer_mismatch_exit_1(self, capsys, tmp_path):
        path = write_matrices(
            tmp_path,
            "2\n1 0\n0 1\n2\n2 0\n0 3\n2\n1 0\n0 -1\n2\n2 0\n0 -4\n")
        rc, out = run_cli(capsys, "signature", "transfer", path)
        assert rc == 1
        assert out["error"]["type"] == "CharpolyMismatch"

    def test_transfer_wrong_count_exit_2(self, capsys, tmp_path):
        path = write_matrices(tmp_path, "2\n1 0\n0 1\n")
        rc, _ = run_cli(capsys, "signature", "transfer", path)
        assert rc == 2

    def test_am_filter(self, capsys):
        rc, out = run_cli(capsys, "signature", "am-filter", "3")
        assert rc == 0
        assert out["determined"] is True
        assert out["candidates"] == [["2", "0"]]
        rc, out = run_cli(capsys, "signature", "am-filter", "2")
        assert rc == 0
        assert out["determined"] is False
        assert out["candidates"] == [["2", "0"], ["0", "2"]]
        rc, out = run_cli(capsys, "signature", "am-filter", "0")
        assert rc == 2


# --- batch store ---

BATCH_LINES = [
    '{"q": 5, "coeffs": [5, -1, 1], "label": "ordinary"}',
    '{"q": 3, "coeffs": [3, 0, 1], "label": "supersingular"}',
    '{"q": 4, "coeffs": [4, -5, 1], "label": "bad-modulus"}',
    'this is not json',
]


def write_batch_input(tmp_path, lines=None):
    path = tmp_path / "in.ndjson"
    path.write_text("\n".join(lines or BATCH_LINES) + "\n")
    return path


def store_records(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    keyed = [r for r in records if r["record_type"] != "manifest"]
    manifests = [r for r in records if r["record_type"] == "manifest"]
    return keyed, manifests


class _DyingFile:
    """Writable file that stops halfway through its third write, as a
    run killed while writing its store would."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            self.handle.write(data[:len(data) // 2])
            raise RuntimeError("killed while writing the store")
        return self.handle.write(data)


_process_line = report.process_line


def _dies_on_marked_line(raw, global_options, base, version):
    """process_line stand-in whose worker process exits on the line
    labelled "dies", after the other lines had time to finish."""
    if '"dies"' in raw:
        time.sleep(3)
        os._exit(1)
    return _process_line(raw, global_options, base, version)


class TestBatch:
    def test_fresh_run_and_idempotent_rerun(self, capsys, tmp_path):
        inp = write_batch_input(tmp_path)
        out = tmp_path / "store.ndjson"
        rc, summary = run_cli(capsys, "batch", "--in", str(inp),
                              "--out", str(out))
        assert rc == 0
        assert summary["processed"] == "4"
        assert summary["written"] == "4"
        assert summary["errors"] == "2"
        keyed, manifests = store_records(out)
        assert len(keyed) == 4 and len(manifests) == 1
        assert manifests[0]["written"] == "4"
        assert "timestamp" in manifests[0]
        assert not any("timestamp" in r for r in keyed)
        # keyed records arrive sorted by content_key
        keys = [r["content_key"] for r in keyed]
        assert keys == sorted(keys)

        rc, summary = run_cli(capsys, "batch", "--in", str(inp),
                              "--out", str(out))
        assert rc == 0
        assert summary["written"] == "0"
        assert summary["skipped"] == "4"
        keyed2, manifests2 = store_records(out)
        assert len(keyed2) == 4 and len(manifests2) == 2

    def test_error_records_inline(self, capsys, tmp_path):
        inp = write_batch_input(tmp_path)
        out = tmp_path / "store.ndjson"
        run_cli(capsys, "batch", "--in", str(inp), "--out", str(out))
        keyed, _ = store_records(out)
        errors = {r.get("raw", r["input"] and r["input"].get("label")):
                  r["error"]["type"]
                  for r in keyed if r["record_type"] == "error"}
        assert errors["this is not json"] == "JSONDecodeError"
        assert errors["bad-modulus"] == "RootModulusFailed"

    def test_duplicate_lines_skipped_within_run(self, capsys, tmp_path):
        inp = write_batch_input(tmp_path, [BATCH_LINES[0], BATCH_LINES[0]])
        out = tmp_path / "store.ndjson"
        rc, summary = run_cli(capsys, "batch", "--in", str(inp),
                              "--out", str(out))
        assert rc == 0
        assert summary["written"] == "1" and summary["skipped"] == "1"

    def test_two_fresh_stores_byte_identical(self, capsys, tmp_path):
        inp = write_batch_input(tmp_path)
        out1, out2 = tmp_path / "s1.ndjson", tmp_path / "s2.ndjson"
        run_cli(capsys, "batch", "--in", str(inp), "--out", str(out1))
        run_cli(capsys, "batch", "--in", str(inp), "--out", str(out2))
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if '"record_type":"manifest"' not in ln]
        assert strip(out1) == strip(out2)

    def test_jobs_equivalence(self, capsys, tmp_path):
        inp = write_batch_input(tmp_path)
        out1, out2 = tmp_path / "s1.ndjson", tmp_path / "s2.ndjson"
        run_cli(capsys, "batch", "--in", str(inp), "--out", str(out1),
                "--jobs", "1")
        run_cli(capsys, "batch", "--in", str(inp), "--out", str(out2),
                "--jobs", "3")
        strip = lambda p: sorted(ln for ln in p.read_text().splitlines()
                                 if '"record_type":"manifest"' not in ln)
        assert strip(out1) == strip(out2)

    def test_missing_input_exit_3(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "batch", "--in",
                          str(tmp_path / "absent.ndjson"),
                          "--out", str(tmp_path / "o.ndjson"))
        assert rc == 3

    def test_corrupt_store_exit_3(self, capsys, tmp_path):
        inp = write_batch_input(tmp_path)
        out = tmp_path / "store.ndjson"
        out.write_text("not a record\n")
        rc, msg = run_cli(capsys, "batch", "--in", str(inp),
                          "--out", str(out))
        assert rc == 3
        assert "refusing to append" in msg["error"]["message"]

    def test_failed_write_leaves_store_intact(self, monkeypatch, tmp_path):
        out = tmp_path / "store.ndjson"
        opts = {"max_power": 1}
        run_batch(write_batch_input(tmp_path, BATCH_LINES[:1]), out,
                  global_options=opts)
        before = out.read_bytes()
        keys = existing_keys(out)
        inp = write_batch_input(tmp_path, BATCH_LINES[1:])

        def dying_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return _DyingFile(handle) if "r" not in mode else handle

        monkeypatch.setattr(report, "open", dying_open, raising=False)
        with pytest.raises(RuntimeError):
            run_batch(inp, out, global_options=opts)
        monkeypatch.undo()
        assert out.read_bytes() == before
        assert existing_keys(out) == keys
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["in.ndjson", "store.ndjson"]
        assert run_batch(inp, out, global_options=opts)["written"] == 3

    def test_each_line_resolved_once_per_pass(self, monkeypatch, tmp_path):
        # plan_keys resolves a line to skip stored keys; process_line
        # resolves it once more and hands the result to the report
        real = report._resolve
        calls = []

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(report, "_resolve", counting)
        lines = BATCH_LINES[:3]
        summary = run_batch(write_batch_input(tmp_path, lines),
                            tmp_path / "store.ndjson",
                            global_options={"max_power": 1})
        assert summary["written"] == 3
        assert len(calls) == 2 * len(lines)

    def test_unexpected_exception_becomes_error_record(self, monkeypatch,
                                                       tmp_path):
        # a bug outside the FrobeigError hierarchy costs its own record only
        real = report.invariants_report

        def flaky(an):
            if an.data.q == 3:
                raise ZeroDivisionError("injected")
            return real(an)

        monkeypatch.setattr(report, "invariants_report", flaky)
        lines = BATCH_LINES[:2] + ['{"q": 2, "coeffs": [2, -1, 1]}']
        out = tmp_path / "store.ndjson"
        summary = run_batch(write_batch_input(tmp_path, lines), out,
                            global_options={"max_power": 1})
        assert (summary["written"], summary["errors"]) == (3, 1)
        keyed = [json.loads(ln) for ln in out.read_text().splitlines()]
        kinds = sorted(r["record_type"] for r in keyed)
        assert kinds == ["error", "manifest", "report", "report"]
        err, = [r for r in keyed if r["record_type"] == "error"]
        assert err["error"] == {"type": "InternalError",
                                "message": "ZeroDivisionError: injected"}
        assert err["input"]["label"] == "supersingular"
        assert existing_keys(out) == {r["content_key"] for r in keyed
                                      if r["record_type"] != "manifest"}

    def test_worker_death_keeps_finished_lines(self, monkeypatch, tmp_path):
        lines = ['{"q": 2, "coeffs": [2, 1, 1], "label": "dies"}'] + [
            '{"q": %d, "coeffs": [%d, %d, 1]}' % (q, q, a)
            for q, a in ((2, -1), (3, 1), (3, -2), (5, 2), (7, -3))]
        inp = write_batch_input(tmp_path, lines)
        clean = tmp_path / "clean.ndjson"
        run_batch(inp, clean, global_options={"max_power": 1})
        out = tmp_path / "store.ndjson"
        monkeypatch.setattr(report, "process_line", _dies_on_marked_line)
        with pytest.raises(BrokenProcessPool):
            run_batch(inp, out, jobs=2, global_options={"max_power": 1})
        monkeypatch.undo()
        # the finished lines and the manifest were stored and read back
        keyed, manifests = store_records(out)
        assert len(manifests) == 1
        clean_keyed, _ = store_records(clean)
        died = {r["content_key"] for r in clean_keyed
                if r["input"].get("label") == "dies"}
        assert existing_keys(out) == {r["content_key"] for r in keyed}
        assert existing_keys(out) < {r["content_key"] for r in clean_keyed}
        assert not existing_keys(out) & died
        run_batch(inp, out, global_options={"max_power": 1})
        strip = lambda p: sorted(ln for ln in p.read_text().splitlines()
                                 if '"record_type":"manifest"' not in ln)
        assert strip(out) == strip(clean)

    def test_worker_death_exit_4(self, capsys, monkeypatch, tmp_path):
        lines = ['{"q": 2, "coeffs": [2, 1, 1], "label": "dies"}',
                 '{"q": 3, "coeffs": [3, 1, 1]}']
        inp = write_batch_input(tmp_path, lines)
        out = tmp_path / "store.ndjson"
        monkeypatch.setattr(report, "process_line", _dies_on_marked_line)
        rc, obj = run_cli(capsys, "batch", "--in", str(inp), "--out",
                          str(out), "--jobs", "2", "--max-power", "1")
        assert rc == 4
        assert obj["error"]["type"] == "BrokenProcessPool"
        _, manifests = store_records(out)
        assert len(manifests) == 1

    def test_pool_no_wider_than_the_pending_lines(self, monkeypatch,
                                                  tmp_path):
        # a fork pool starts every worker at the first submit, so a pool
        # wider than the pending lines forks processes that get no work
        real = pool_module.ProcessPoolExecutor

        def bounded(max_workers):
            assert max_workers <= 2
            return real(max_workers=max_workers)

        inp = write_batch_input(tmp_path, BATCH_LINES[:2])
        serial, wide = tmp_path / "s1.ndjson", tmp_path / "s64.ndjson"
        run_batch(inp, serial, global_options={"max_power": 1})
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", bounded)
        summary = run_batch(inp, wide, jobs=64,
                            global_options={"max_power": 1})
        assert summary["written"] == 2
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if '"record_type":"manifest"' not in ln]
        assert strip(wide) == strip(serial)

    def test_run_batch_api_options_change_keys(self, tmp_path):
        inp = write_batch_input(tmp_path, [BATCH_LINES[0]])
        out = tmp_path / "store.ndjson"
        s1 = run_batch(inp, out, global_options={"max_power": 1})
        assert s1["written"] == 1
        # different effective options -> different content_key -> no skip
        s2 = run_batch(inp, out, global_options={"max_power": 2})
        assert s2["written"] == 1 and s2["skipped"] == 0
        s3 = run_batch(inp, out, global_options={"max_power": 1})
        assert s3["skipped"] == 1
