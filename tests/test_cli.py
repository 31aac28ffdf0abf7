from __future__ import annotations

import json
import time

import pytest

from hamlab import generators, scan
from hamlab.cli import main
from hamlab.harness import CampaignSpec, run_campaign
from hamlab.digraph import parse, serialize
from hamlab.generators import gen_kstar, gen_random_strong, gen_two_cliques


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen -------------------------------------------------------------------------


def test_gen_kstar_writes_8_arc_file(capsys):
    code, out, _ = run_cli(capsys, "gen", "kstar", "2", "2")
    assert code == 0
    d = parse(out)
    assert d.n == 4 and d.arc_count() == 8
    assert out == serialize(gen_kstar(2, 2))


def test_gen_to_output_file(capsys, tmp_path):
    target = tmp_path / "d.txt"
    code, out, _ = run_cli(capsys, "gen", "two-cliques", "3", "-o", str(target))
    assert code == 0 and out == ""
    assert parse(target.read_text()).out == gen_two_cliques(3).out


def test_gen_cycle_rejects_order_one(capsys):
    code, _, err = run_cli(capsys, "gen", "cycle", "1")
    assert code == 2 and "error:" in err


def test_gen_reports_a_give_up_and_an_unwritable_output(capsys, monkeypatch):
    monkeypatch.setattr(generators, "GIVE_UP_AFTER", 10)
    code, out, err = run_cli(capsys, "gen", "random-strong", "3", "0.000001")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run_cli(capsys, "gen", "cycle", "4", "-o", "/nonexistent/x")
    assert code == 2 and out == "" and err.startswith("error:")


def test_gen_random_strong_without_arcs_fails_at_once(capsys):
    started = time.monotonic()
    code, out, err = run_cli(capsys, "gen", "random-strong", "3", "0.0")
    assert code == 2 and out == "" and err.startswith("error:")
    assert time.monotonic() - started < 0.5
    code, out, _ = run_cli(capsys, "gen", "random-strong", "1", "0.0")
    assert code == 0 and parse(out).n == 1


@pytest.mark.parametrize("params", [("kstar", "40", "40"), ("two-cliques", "40")])
def test_gen_rejects_orders_above_64(capsys, params):
    code, out, err = run_cli(capsys, "gen", *params)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "outside 1..64" in err


def test_gen_kstar_at_order_64(capsys):
    code, out, _ = run_cli(capsys, "gen", "kstar", "32", "32")
    assert code == 0 and parse(out).n == 64


def test_gen_rejects_bad_family_and_arity(capsys):
    assert run_cli(capsys, "gen", "moebius", "3")[0] == 2
    assert run_cli(capsys, "gen", "kstar", "3")[0] == 2
    assert run_cli(capsys, "gen", "kstar", "a", "b")[0] == 2


def test_gen_random_strong_is_seed_reproducible(capsys):
    code, out1, _ = run_cli(capsys, "gen", "random-strong", "6", "0.4", "--seed", "9")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "random-strong", "6", "0.4", "--seed", "9")
    assert out1 == out2
    assert out1 == serialize(gen_random_strong(6, 0.4, 9))


# --- check ------------------------------------------------------------------------


def test_check_table_output(capsys, tmp_path):
    f = tmp_path / "k.txt"
    f.write_text(serialize(gen_kstar(3, 3)))
    code, out, _ = run_cli(capsys, "check", str(f))
    assert code == 0
    verdicts = (
        "ghouila_houri", "woodall", "meyniel", "min_degree_semidegree", "a0", "bjgl_16",
        "bjgl_17", "bgy_18",
    )
    assert out.splitlines() == [
        "order 6, arcs 18",
        f"{'condition':<24}{'holds':<8}violations",
        *(f"{name:<24}{'yes':<8}0" for name in verdicts),
        "ak margin: 2",
        "classification: strong=yes, hamiltonian=yes, pre_hamiltonian=no, pancyclic=no, "
        "ham_bypass=yes, kstar_balanced=3x3",
    ]


def test_check_json_output(capsys, tmp_path):
    f = tmp_path / "k.txt"
    f.write_text(serialize(gen_two_cliques(3)))
    code, out, _ = run_cli(capsys, "check", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"conditions", "classification"}
    assert data["conditions"]["ak_margin"] == {"kind": "bounded", "max_k": -1}
    assert data["classification"]["hamiltonian"] is False


def test_check_single_vertex_is_vacuous(capsys, tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("1\n")
    code, out, _ = run_cli(capsys, "check", str(f))
    assert code == 0
    assert "order 1, arcs 0" in out


def test_check_malformed_file(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3\n0 9\n")
    assert run_cli(capsys, "check", str(f))[0] == 2
    assert run_cli(capsys, "check", str(tmp_path / "missing.txt"))[0] == 2


# --- verify ------------------------------------------------------------------------


def test_verify_thm110_n4(capsys):
    code, out, err = run_cli(capsys, "verify", "thm110", "--n", "4")
    assert code == 0
    assert "scanned 4096" in out
    assert "counterexamples 0" in out
    assert "progress:" in err


def test_verify_json_result(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm15", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["scanned"] == 4096
    assert data["hypothesis_hits"] == 660
    assert data["counterexamples"] == []
    assert data["complete"] is True


def test_verify_bypass_names_one_class(capsys):
    code, out, _ = run_cli(capsys, "verify", "bypass_claim", "--n", "5")
    assert code == 0
    assert out.count("exception class") == 1
    assert "40 labeled copies" in out


def test_verify_sampled_conjecture(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "conj19", "--n", "6", "--mode", "sample",
        "--samples", "5000", "--seed", "7",
    )
    assert code == 0
    assert "scanned 5000" in out


def test_verify_rejects_bad_spec(capsys):
    assert run_cli(capsys, "verify", "thm15", "--n", "3")[0] == 2
    assert run_cli(capsys, "verify", "nope", "--n", "4")[0] == 2
    assert run_cli(capsys, "verify", "thm15", "--n", "6")[0] == 2  # long-run gate


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_a_sampler_give_up(capsys, monkeypatch, jobs):
    monkeypatch.setattr(scan, "GIVE_UP_AFTER", 50)
    argv = ("verify", "conj19", "--n", "5", "--mode", "sample", "--samples", "4",
            "--arc-prob", "0.01", "--jobs", jobs)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: no strong digraph") and "Traceback" not in err


def test_verify_refuses_an_arc_probability_that_draws_no_arc(capsys, monkeypatch):
    monkeypatch.setattr(scan, "GIVE_UP_AFTER", 50)  # a run let through gives up soon
    argv = ("verify", "conj19", "--n", "5", "--mode", "sample", "--samples", "1",
            "--arc-prob", "1e-30")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "progress" not in err


def test_verify_rejects_misaligned_checkpoint(capsys, tmp_path):
    cp = str(tmp_path / "cp.json")
    argv = ("verify", "thm15", "--n", "4", "--shards", "3", "--checkpoint", cp, "--json")
    assert run_cli(capsys, *argv)[0] == 0
    with open(cp, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["cursor"] += 1
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "cursor" in err and out == ""


def test_verify_rejects_a_checkpoint_without_its_detail(capsys, tmp_path):
    cp = str(tmp_path / "cp.json")
    run_campaign(CampaignSpec(claim="thm110", n=5, checkpoint_path=cp), stop_after=40_000)
    with open(cp, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["detail"] = {}
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    code, out, err = run_cli(capsys, "verify", "thm110", "--n", "5", "--checkpoint", cp)
    assert code == 2 and out == ""
    assert err.startswith("error: corrupt checkpoint") and "detail" in err


def test_verify_rejects_a_checkpoint_with_a_negative_exception_class(capsys, tmp_path):
    cp = str(tmp_path / "cp.json")
    run_campaign(CampaignSpec(claim="bypass_claim", n=5, checkpoint_path=cp), stop_after=300)
    with open(cp, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["exceptions"][0]["count"] = -7
    payload["detail"]["exception_members"] = 0
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    code, out, err = run_cli(capsys, "verify", "bypass_claim", "--n", "5", "--checkpoint", cp)
    assert code == 2 and out == ""
    assert err.startswith("error: corrupt checkpoint") and "exception" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_an_unwritable_checkpoint(capsys, tmp_path, jobs):
    cp = str(tmp_path / "missing" / "cp.json")
    argv = ("verify", "thm15", "--n", "4", "--jobs", jobs, "--checkpoint", cp, "--json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write checkpoint")


def test_verify_refuses_a_nested_spec_checkpoint(capsys, tmp_path):
    cp = str(tmp_path / "old.json")
    spec = CampaignSpec(claim="thm15", n=4)
    old = {"fingerprint": spec.fingerprint(), "spec": spec.identity(), "cursor": 1,
           "scanned": 1, "strong": 0, "hypothesis_hits": 0, "verified": 0}
    with open(cp, "w", encoding="utf-8") as fh:
        json.dump(old, fh)
    code, out, err = run_cli(capsys, "verify", "thm15", "--n", "4", "--checkpoint", cp, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and cp in err


def test_verify_jobs_matches_single(capsys):
    code, out_multi, _ = run_cli(capsys, "verify", "thm110", "--n", "4", "--jobs", "3", "--json")
    assert code == 0
    code, out_single, _ = run_cli(capsys, "verify", "thm110", "--n", "4", "--json")
    assert code == 0
    multi = json.loads(out_multi)
    single = json.loads(out_single)
    for key in ("scanned", "strong", "hypothesis_hits", "verified", "detail"):
        assert multi[key] == single[key]
    assert multi["shards"] == 1  # merged result presents as a whole run


# --- spectrum and bypass --------------------------------------------------------------


def test_spectrum_kstar33(capsys, tmp_path):
    f = tmp_path / "k.txt"
    f.write_text(serialize(gen_kstar(3, 3)))
    code, out, _ = run_cli(capsys, "spectrum", str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 4 6"
    assert lines[1].startswith("2: ")
    assert len(lines) == 4


def test_spectrum_empty(capsys, tmp_path):
    f = tmp_path / "none.txt"
    f.write_text("3\n0 1\n")
    code, out, _ = run_cli(capsys, "spectrum", str(f))
    assert code == 0 and out.strip() == "none"


def test_spectrum_malformed(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("not a digraph")
    assert run_cli(capsys, "spectrum", str(f))[0] == 2


def test_bypass_cycle5_none(capsys, tmp_path):
    f = tmp_path / "c5.txt"
    code, out, _ = run_cli(capsys, "gen", "cycle", "5", "-o", str(f))
    assert code == 0
    code, out, _ = run_cli(capsys, "bypass", str(f))
    assert code == 0 and out.strip() == "none"


def test_bypass_kstar22_found(capsys, tmp_path):
    f = tmp_path / "k22.txt"
    run_cli(capsys, "gen", "kstar", "2", "2", "-o", str(f))
    code, out, _ = run_cli(capsys, "bypass", str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("path: ")
    assert lines[1].startswith("chord: ")
    path = [int(v) for v in lines[0].split(":")[1].split()]
    assert len(path) == 4


def test_bypass_too_small(capsys, tmp_path):
    f = tmp_path / "two.txt"
    f.write_text("2\n0 1\n1 0\n")
    assert run_cli(capsys, "bypass", str(f))[0] == 2


@pytest.mark.parametrize("command", ["check", "spectrum", "bypass"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, command):
    f = tmp_path / "binary.txt"
    f.write_bytes(b"\xff\xfe3\n")
    code, out, err = run_cli(capsys, command, str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
