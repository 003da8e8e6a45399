import os
from fractions import Fraction

import pytest

from gcb.cli import main
from gcb.nfg import Factor, Nfg, emit_nfg_text, parity_table

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "gcb", "data")


def fig1_path():
    return os.path.join(DATA, "fig1.nfg")


def dumbbell_path():
    return os.path.join(DATA, "dumbbell.nfg")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zgibbs_fig1(capsys):
    code, out, _ = run(capsys, "zgibbs", "--nfg", fig1_path())
    assert code == 0
    assert out == "zgibbs=8/1\n"


def test_enumerate_fig1(capsys):
    code, out, _ = run(capsys, "enumerate", "--nfg", fig1_path())
    assert code == 0
    assert "count=8" in out
    assert "config=10011011 value=1/1" in out


def test_zbethe_m_dumbbell(capsys):
    code, out, _ = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2")
    assert code == 0
    assert "pre_root=10/1" in out
    assert "zbethe_m=3.16227766017" in out


def test_zbethe_m_typesum_matches(capsys):
    code, out, _ = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                       "--method", "typesum")
    assert code == 0
    assert "pre_root=10/1" in out


def test_zbethe_m_monte_carlo_needs_seed(capsys):
    code, _, err = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                       "--samples", "10")
    assert code == 3
    assert "seed" in err


@pytest.mark.parametrize("method", ["enum", "typesum"])
def test_zbethe_m_degree_zero_exit(capsys, method):
    code, out, err = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "0",
                         "--method", method)
    assert code == 3
    assert out == ""
    assert "degree M must be at least 1" in err


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_zbethe_m_monte_carlo_needs_a_sample(capsys, samples):
    code, out, err = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                         "--samples", samples, "--seed", "1")
    assert code == 3
    assert out == ""
    assert "at least one sample" in err


def test_enumerate_parity_ring_past_product_space_cap(tmp_path, capsys):
    # 2^28 assignments, 2 valid configurations; the default cap is 2^26
    edges = [f"e{i:02d}" for i in range(28)]
    ring = Nfg({e: 2 for e in edges}, [],
               [Factor(f"f{i:02d}", (edges[i - 1], edges[i]), parity_table(2)) for i in range(28)])
    path = tmp_path / "ring.nfg"
    path.write_text(emit_nfg_text(ring))
    code, out, _ = run(capsys, "enumerate", "--nfg", str(path))
    assert code == 0
    assert out.splitlines() == [f"config={'0' * 28} value=1/1", f"config={'1' * 28} value=1/1", "count=2"]
    code, out, _ = run(capsys, "zgibbs", "--nfg", str(path))
    assert code == 0 and out == "zgibbs=2/1\n"


def test_zbethe_min_dumbbell(capsys):
    code, out, _ = run(capsys, "zbethe-min", "--nfg", dumbbell_path(), "--starts", "2")
    assert code == 0
    assert "zbethe=2\n" in out or "zbethe=2.0" in out or "zbethe=1.99999" in out


def test_covers_count(capsys):
    code, out, _ = run(capsys, "covers", "--nfg", dumbbell_path(), "-M", "2",
                       "--count-only")
    assert code == 0
    assert out == "count=128\n"


def test_cover_cap_exit_code(capsys):
    code, _, err = run(capsys, "covers", "--nfg", dumbbell_path(), "-M", "3",
                       "--cover-cap", "1000")
    assert code == 2
    assert "cap" in err


def test_float_enumeration_config_cap_exit_code(capsys):
    code, _, err = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                       "--precision", "float", "--config-cap", "10")
    assert code == 2
    assert "more than 10 valid configurations" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nfg"
    bad.write_text("alphabet a\n")
    code, _, err = run(capsys, "zgibbs", "--nfg", str(bad))
    assert code == 3


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "zgibbs", "--nfg", "/nonexistent.nfg")
    assert code == 3


def test_preimage_count_roundtrip(tmp_path, capsys):
    from gcb.bethe import emit_beta

    import sys
    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import fig5_beta

    beta_file = tmp_path / "beta.txt"
    beta_file.write_text(emit_beta(fig5_beta()))
    code, out, _ = run(capsys, "preimage-count", "--nfg", fig1_path(), "-M", "2",
                       "--beta", str(beta_file), "--method", "both")
    assert code == 0
    lines = dict(l.split("=") for l in out.strip().splitlines())
    assert lines["closedform"] == lines["bruteforce"]


def test_spa_tree(tmp_path, capsys):
    tree = tmp_path / "tree.nfg"
    tree.write_text(
        "alphabet a 2\nalphabet m 2\nalphabet b 2\n"
        "halfedge a\nhalfedge b\n"
        "fulledge m f g\n"
        "factor f a m\nrow 0 0 0.7\nrow 0 1 0.2\nrow 1 0 0.4\nrow 1 1 0.9\n"
        "factor g m b\nrow 0 0 0.5\nrow 0 1 0.3\nrow 1 0 0.8\nrow 1 1 0.6\n"
    )
    code, out, _ = run(capsys, "spa", "--nfg", str(tree))
    assert code == 0
    assert "converged=true" in out


def test_decode_cli(tmp_path, capsys):
    pcm = tmp_path / "h.pcm"
    pcm.write_text("1 1 0\n0 1 1\n")
    chan = tmp_path / "chan.txt"
    chan.write_text(
        "W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n"
    )
    yfile = tmp_path / "y.txt"
    yfile.write_text("0 0 1\n")
    code, out, _ = run(capsys, "decode", "--decoder", "smapd", "--pcm", str(pcm),
                       "--channel", str(chan), "--y", str(yfile))
    assert code == 0
    assert "decision=000" in out
    assert "belief_x1=0:9/10 1:1/10" in out


def decode_repetition(capsys, tmp_path, *argv):
    """Decode y = 001 on the length-3 repetition code through a BSC(1/10)."""
    (tmp_path / "h.pcm").write_text("1 1 0\n0 1 1\n")
    (tmp_path / "chan.txt").write_text("W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n")
    (tmp_path / "y.txt").write_text("0 0 1\n")
    return run(capsys, "decode", "--pcm", str(tmp_path / "h.pcm"), "--channel",
               str(tmp_path / "chan.txt"), "--y", str(tmp_path / "y.txt"), *argv)


@pytest.mark.parametrize("decoder", ["bgcd", "sgcd"])
def test_decode_degree_cli(tmp_path, capsys, decoder):
    code, out, _ = decode_repetition(capsys, tmp_path, "--decoder", decoder, "--degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "decision=000"
    # one optimal type, the lift of 000, though all 128 labeled covers carry it
    assert lines[1] == "tie=false"
    assert lines[2].startswith("objective=")
    if decoder == "sgcd":
        # on a tree the degree-M marginals are the exact posterior marginals
        assert lines[3:] == [f"belief_x{i}=0:9/10 1:1/10" for i in (1, 2, 3)]


@pytest.mark.parametrize("decoder", ["bgcd", "sgcd"])
def test_decode_degree_cover_cap_exit(tmp_path, capsys, decoder):
    code, out, err = decode_repetition(capsys, tmp_path, "--decoder", decoder, "--degree", "2",
                                       "--cover-cap", "1")
    assert code == 2
    assert out == ""
    assert "128 covers exceed cap 1" in err


@pytest.mark.parametrize("decoder", ["bgcd", "sgcd"])
def test_decode_degree_config_cap_exit(tmp_path, capsys, decoder):
    # the identity 2-cover alone has 4 valid configurations
    code, out, err = decode_repetition(capsys, tmp_path, "--decoder", decoder, "--degree", "2",
                                       "--config-cap", "2")
    assert code == 2
    assert out == ""
    assert "more than 2 valid configurations" in err


@pytest.mark.parametrize("decoder", ["bgcd", "sgcd"])
def test_decode_degree_zero_exit(tmp_path, capsys, decoder):
    code, out, err = decode_repetition(capsys, tmp_path, "--decoder", decoder, "--degree", "0")
    assert code == 3
    assert out == ""
    assert "degree M must be at least 1" in err


def test_decode_bgcd_config_cap_exit(tmp_path, capsys):
    # the code has 2 codewords; the cap bounds attach_channel and bgcd's tie check
    code, out, _ = decode_repetition(capsys, tmp_path, "--decoder", "bgcd", "--config-cap", "2")
    assert code == 0 and out.startswith("decision=000\n")
    code, out, err = decode_repetition(capsys, tmp_path, "--decoder", "bgcd", "--config-cap", "1")
    assert code == 2
    assert out == ""
    assert "more than 1 valid configurations" in err


def test_decode_from_alist(tmp_path, capsys):
    alist = tmp_path / "h.alist"
    # 3 columns, 2 rows: the length-3 repetition code
    alist.write_text(
        "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
    )
    chan = tmp_path / "chan.txt"
    chan.write_text("W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n")
    yfile = tmp_path / "y.txt"
    yfile.write_text("1 1 0\n")
    code, out, _ = run(capsys, "decode", "--decoder", "bmapd", "--alist", str(alist),
                       "--channel", str(chan), "--y", str(yfile))
    assert code == 0
    assert "decision=111" in out


def test_spa_nonconvergence_exit(tmp_path, capsys):
    tree = tmp_path / "tree.nfg"
    tree.write_text(
        "alphabet a 2\nalphabet m 2\nalphabet b 2\n"
        "halfedge a\nhalfedge b\n"
        "fulledge m f g\n"
        "factor f a m\nrow 0 0 0.7\nrow 0 1 0.2\nrow 1 0 0.4\nrow 1 1 0.9\n"
        "factor g m b\nrow 0 0 0.5\nrow 0 1 0.3\nrow 1 0 0.8\nrow 1 1 0.6\n"
    )
    code, out, _ = run(capsys, "spa", "--nfg", str(tree), "--max-iters", "1")
    assert code == 4
    assert "converged=false" in out


@pytest.mark.parametrize("temperature", ["-1", "0"])
def test_spa_non_positive_temperature_exit(capsys, temperature):
    code, out, err = run(capsys, "spa", "--nfg", fig1_path(), "--temperature", temperature)
    assert code == 3
    assert out == ""
    assert "temperature must be positive" in err


def test_decode_length_mismatch_exit(tmp_path, capsys):
    pcm = tmp_path / "h.pcm"
    pcm.write_text("1 1\n")
    chan = tmp_path / "chan.txt"
    chan.write_text("W 0 0 1\nW 1 1 1\nW 1 0 0\nW 0 1 0\n")
    yfile = tmp_path / "y.txt"
    yfile.write_text("0 0 0\n")
    code, _, err = run(capsys, "decode", "--decoder", "bmapd", "--pcm", str(pcm),
                       "--channel", str(chan), "--y", str(yfile))
    assert code == 3
    assert "length" in err.lower()


def test_ldpc_curve_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, err = run(capsys, "ldpc-curve", "--dl", "3", "--dr", "6",
                       "--smin", "-3", "--smax", "3", "--steps", "11",
                       "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "s,omega,h_nats,h_bits,d2h_domega2"
    assert len(lines) == 12
    assert "negative_near_zero" in err


def test_examples_replay(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "dumbbell-zbethe2: ok" in out
    assert "fig1-enumerate: ok" in out
    assert "fig5-phi2: ok" in out


def test_examples_case_output(capsys):
    code, out, _ = run(capsys, "examples", "--case", "dumbbell-zbethe2", "--show")
    assert code == 0
    assert "Z_B,2 = sqrt(10/1) = 3.16227766..." in out


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                     "--samples", "500", "--seed", "7")
    _, out2, _ = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                     "--samples", "500", "--seed", "7")
    assert out1 == out2


def test_bme_cli(capsys):
    pcm_path = os.path.join(DATA, "example3.pcm")
    # build the code graph on the fly through a temp nfg emission
    from gcb.coding import ParityCheckMatrix, nfg_from_parity_check

    with open(pcm_path) as fh:
        h = ParityCheckMatrix.from_dense_text(fh.read())
    nfg = nfg_from_parity_check(h)
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".nfg", delete=False) as fh:
        fh.write(emit_nfg_text(nfg))
        path = fh.name
    try:
        code, out, _ = run(capsys, "bme", "--nfg", path,
                           "--omega", ",".join(["0.5"] * 10))
        assert code == 0
        assert "h_induced=3.4657" in out  # 10 * 0.5 log 2 nats
    finally:
        os.unlink(path)


def test_env_cap_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GCB_COVER_CAP", "10")
    code, _, err = run(capsys, "covers", "--nfg", dumbbell_path(), "-M", "2")
    assert code == 2


def test_zgibbs_on_cover_spec(capsys):
    cover = os.path.join(DATA, "fig5.cover")
    code, out, _ = run(capsys, "zgibbs", "--nfg", fig1_path(), "--cover", cover)
    assert code == 0
    # every 2-cover of an 8-configuration behavior has between 8 and 64 configs
    value = Fraction(out.strip().split("=")[1])
    assert 8 <= value <= 64


def test_spa_trace_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "spa", "--nfg", fig1_path(), "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual,f_bethe"
    assert len(lines) >= 2


def test_precision_flag(capsys):
    code, out, _ = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                       "--precision", "float")
    assert code == 0
    assert "pre_root=10\n" in out
    code, out, _ = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                       "--precision", "exact")
    assert code == 0
    assert "pre_root=10/1" in out
