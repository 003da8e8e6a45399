import os
from fractions import Fraction

import pytest

from gcb.bethe import DIFFUSION_SWEEPS
from gcb.cli import _load_assignment, main
from gcb.errors import ParseError
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


def test_zbethe_m_one_sample_prints_nan_stderr(capsys):
    code, out, _ = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                       "--samples", "1", "--seed", "1")
    assert code == 0
    assert out.splitlines()[-2:] == ["samples=1", "stderr=nan"]


def test_zbethe_m_typesum_refuses_samples(capsys):
    code, out, err = run(capsys, "zbethe-m", "--nfg", dumbbell_path(), "-M", "2",
                         "--method", "typesum", "--samples", "3", "--seed", "1")
    assert code == 3
    assert out == ""
    assert "--samples needs --method enum" in err


@pytest.mark.parametrize("argv", [
    ["decode", "--decoder", "bmapd"],  # no --channel, no --y
    ["zbethe-m", "--nfg", "g.nfg", "-M", "2", "--bogus"],
])
def test_usage_errors_exit_3(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


# required arguments of each subcommand that reads neither cap
REQUIRED = {
    "zbethe-min": ["--nfg", "g.nfg"],
    "spa": ["--nfg", "g.nfg"],
    "bme": ["--nfg", "g.nfg", "--omega", "0.5"],
    "ldpc-curve": ["--dl", "3", "--dr", "6"],
    "examples": [],
    "enumerate": ["--nfg", "g.nfg"],
    "zgibbs": ["--nfg", "g.nfg"],
}


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("zbethe-min", "spa", "bme", "ldpc-curve", "examples")
      for flag in ("--config-cap", "--cover-cap")),
    ("enumerate", "--cover-cap"),
    ("zgibbs", "--cover-cap"),
])
def test_cap_flags_only_where_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, "5"])
    assert exc.value.code == 3
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [
    (["enumerate", "--nfg", fig1_path(), "--config-cap", "-1"], {}),
    (["enumerate", "--nfg", fig1_path()], {"GCB_CONFIG_CAP": "-1"}),
    (["zbethe-m", "--nfg", dumbbell_path(), "-M", "2", "--method", "typesum", "--config-cap", "-1"], {}),
    (["covers", "--nfg", dumbbell_path(), "-M", "2", "--cover-cap", "-1"], {}),
])
def test_negative_caps_exit_3(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "cap must be non-negative, got -1" in err


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
    assert out.splitlines()[-2:] == ["converged=true", "tie=false"]


def test_zbethe_min_zero_temperature_tie(capsys):
    # fig1's T = 0 optimum is attained by several configurations
    code, out, _ = run(capsys, "zbethe-min", "--nfg", fig1_path(), "-T", "0")
    assert code == 0
    assert out.splitlines()[-1] == "tie=true"


def test_zbethe_min_nonconvergence_exit_4(tmp_path, capsys):
    from conftest import make_frustrated_k4

    path = tmp_path / "k4.nfg"
    path.write_text(emit_nfg_text(make_frustrated_k4()))
    code, out, err = run(capsys, "zbethe-min", "--nfg", str(path), "--starts", "1")
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_zbethe_min_refuses_no_starts(capsys, starts):
    code, out, err = run(capsys, "zbethe-min", "--nfg", dumbbell_path(), "--starts", starts)
    assert code == 3
    assert out == ""
    assert "n_starts must be at least 1" in err


@pytest.mark.parametrize("argv, message", [
    (["zbethe-m", "--nfg", dumbbell_path(), "-M", "2", "--method", "typesum", "--cover-cap", "1"],
     "--cover-cap needs --method enum without --samples"),
    (["zbethe-m", "--nfg", dumbbell_path(), "-M", "2", "--samples", "3", "--seed", "1", "--cover-cap", "1"],
     "--cover-cap needs --method enum without --samples"),
    (["covers", "--nfg", dumbbell_path(), "-M", "2", "--count-only", "--cover-cap", "1"],
     "--count-only reads no cap"),
    (["covers", "--nfg", dumbbell_path(), "-M", "2", "--count-only", "--config-cap", "1"],
     "--count-only reads no cap"),
    (["covers", "--nfg", dumbbell_path(), "-M", "2", "--config-cap", "1"],
     "--config-cap needs --zgibbs"),
    (["preimage-count", "--nfg", fig1_path(), "-M", "2", "--beta", "beta.txt", "--cover-cap", "1"],
     "--method closed reads no cap"),
    (["preimage-count", "--nfg", fig1_path(), "-M", "2", "--beta", "beta.txt", "--config-cap", "1"],
     "--method closed reads no cap"),
    (["covers", "--nfg", dumbbell_path(), "-M", "2", "--count-only", "--zgibbs"],
     "--count-only reports no --zgibbs"),
])
def test_ignored_cap_flags_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert message in err


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


@pytest.mark.parametrize("argv", [
    ["preimage-count", "--nfg", dumbbell_path(), "-M", "0", "--beta", "zeros.beta", "--method", "closed"],
    ["preimage-count", "--nfg", dumbbell_path(), "-M", "0", "--beta", "zeros.beta", "--method", "both"],
    ["covers", "--nfg", dumbbell_path(), "-M", "0", "--count-only"],
    ["covers", "--nfg", dumbbell_path(), "-M", "0"],
])
def test_cover_commands_refuse_degree_zero(tmp_path, capsys, monkeypatch, argv):
    from gcb.bethe import emit_beta
    from gcb.covers import beta_from_configuration
    from gcb.nfg import parse_nfg

    monkeypatch.chdir(tmp_path)
    (tmp_path / "zeros.beta").write_text(emit_beta(beta_from_configuration(parse_nfg(dumbbell_path()), (0,) * 7)))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "degree M must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ["zbethe-m", "--nfg", dumbbell_path(), "-M", "1", "--cover-cap", "0"],
    ["--decoder", "bgcd", "--degree", "1", "--cover-cap", "0"],
    ["--decoder", "sgcd", "--degree", "1", "--cover-cap", "0"],
])
def test_cover_cap_is_read_at_degree_one(tmp_path, capsys, argv):
    if argv[0] == "zbethe-m":
        code, out, err = run(capsys, *argv)
    else:
        code, out, err = decode_repetition(capsys, tmp_path, *argv)
    assert code == 2
    assert out == ""
    assert "1 covers exceed cap 0" in err


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


@pytest.mark.parametrize("decoder", ["bmapd", "smapd"])
def test_decode_map_rules_refuse_degree(tmp_path, capsys, decoder):
    code, out, err = decode_repetition(capsys, tmp_path, "--decoder", decoder, "--degree", "3")
    assert code == 3
    assert out == ""
    assert f"--degree needs --decoder bgcd or sgcd, not {decoder}" in err


@pytest.mark.parametrize("decoder", ["bmapd", "smapd", "bgcd", "sgcd"])
def test_decode_cover_cap_needs_degree(tmp_path, capsys, decoder):
    code, out, err = decode_repetition(capsys, tmp_path, "--decoder", decoder, "--cover-cap", "1")
    assert code == 3
    assert out == ""
    assert "--cover-cap needs --degree" in err


def test_decode_sgcd_uncertified_exit_4(tmp_path, capsys, monkeypatch):
    import gcb.bethe

    code, out, _ = decode_repetition(capsys, tmp_path, "--decoder", "sgcd")
    assert code == 0 and out.startswith("decision=000\n")
    # no start can meet a negative gap tolerance, so the result is uncertified
    monkeypatch.setattr(gcb.bethe, "GAP_TOL", -1.0)
    code, out, _ = decode_repetition(capsys, tmp_path, "--decoder", "sgcd")
    assert code == 4
    assert out.startswith("decision=000\n")


def test_decode_bgcd_prints_its_certificate(tmp_path, capsys):
    """bgcd without --degree reports whether diffusion pinned the optimum:
    on y = 001 it does; on the 4-bit repetition code y = 0011 ties, so the
    word runs every sweep and goes to the LP."""
    code, out, _ = decode_repetition(capsys, tmp_path, "--decoder", "bgcd")
    lines = out.splitlines()
    assert code == 0 and lines[:2] == ["decision=000", "tie=false"]
    assert lines[3] == "certified=true" and int(lines[4].split("=")[1]) >= 1
    assert lines[5].startswith("bound=") and float(lines[5][6:]) == pytest.approx(float(lines[2][10:]), rel=1e-11)
    (tmp_path / "h4.pcm").write_text("1 1 0 0\n0 1 1 0\n0 0 1 1\n")
    (tmp_path / "y4.txt").write_text("0 0 1 1\n")
    code, out, _ = run(capsys, "decode", "--decoder", "bgcd", "--pcm", str(tmp_path / "h4.pcm"),
                       "--channel", str(tmp_path / "chan.txt"), "--y", str(tmp_path / "y4.txt"))
    lines = out.splitlines()
    assert code == 0 and lines[1] == "tie=true"
    assert lines[3:5] == ["certified=false", f"sweeps={DIFFUSION_SWEEPS}"]
    assert lines[5].startswith("bound=") and float(lines[5][6:]) <= float(lines[2][10:]) + 1e-9


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


def test_decode_from_alist_padded_to_the_max_degree(tmp_path, capsys):
    alist = tmp_path / "h.alist"
    # the length-3 repetition code again, every list padded with 0 to degree 2
    alist.write_text("3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n")
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


@pytest.mark.parametrize("argv, message", [
    (["spa", "-T", "nan"], "temperature must be positive and finite"),
    (["zgibbs", "-T", "nan"], "temperature must be positive and finite"),
    (["zbethe-m", "-M", "2", "-T", "inf"], "temperature must be positive and finite"),
    (["zbethe-m", "-M", "2", "-T", "nan", "--method", "typesum"], "temperature must be positive and finite"),
    (["zbethe-min", "-T", "nan"], "temperature must be non-negative and finite"),
    (["zbethe-min", "-T", "inf"], "temperature must be non-negative and finite"),
])
def test_non_finite_temperature_exit_3(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--nfg", dumbbell_path(), *argv[1:])
    assert code == 3
    assert out == ""
    assert message in err


@pytest.mark.parametrize("smin, smax", [("nan", "3"), ("3", "-3")])
def test_ldpc_curve_bad_range_exit_3(capsys, smin, smax):
    code, out, err = run(capsys, "ldpc-curve", "--dl", "3", "--dr", "6", "--smin", smin, "--smax", smax)
    assert code == 3
    assert out == ""
    assert "need finite s_min < s_max" in err


def test_decode_alist_row_index_past_m_exit_3(tmp_path, capsys):
    (tmp_path / "h.alist").write_text("3 2\n2 3\n1 2 1\n2 2\n1\n1 3\n2\n1 2\n2 3\n")
    (tmp_path / "chan.txt").write_text("W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n")
    (tmp_path / "y.txt").write_text("0 0 1\n")
    code, out, err = run(capsys, "decode", "--decoder", "bmapd", "--alist", str(tmp_path / "h.alist"),
                         "--channel", str(tmp_path / "chan.txt"), "--y", str(tmp_path / "y.txt"))
    assert code == 3
    assert out == ""
    assert "alist column 2: row index 3 outside 1..2" in err


@pytest.mark.parametrize("text, message", [
    ("3 2\n2 2\n1 2 1\n1 2\n1\n1 2\n2\n1\n2 3\n", "alist row 1: degree 1 below its 2 columns"),
    ("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n1 3\n", "alist row 2: columns [1, 3], but the column lists give [2, 3]"),
    ("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n", "alist truncated"),
])
def test_decode_alist_row_section_fault_exit_3(tmp_path, capsys, text, message):
    (tmp_path / "h.alist").write_text(text)
    (tmp_path / "chan.txt").write_text("W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n")
    (tmp_path / "y.txt").write_text("0 0 1\n")
    code, out, err = run(capsys, "decode", "--decoder", "bmapd", "--alist", str(tmp_path / "h.alist"),
                         "--channel", str(tmp_path / "chan.txt"), "--y", str(tmp_path / "y.txt"))
    assert code == 3
    assert out == ""
    assert message in err


def test_decode_channel_input_past_alphabet_exit_3(tmp_path, capsys):
    (tmp_path / "h.pcm").write_text("1 1 0\n0 1 1\n")
    (tmp_path / "chan.txt").write_text("W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\nW 0 2 1\n")
    (tmp_path / "y.txt").write_text("0 0 1\n")
    code, out, err = run(capsys, "decode", "--decoder", "bmapd", "--pcm", str(tmp_path / "h.pcm"),
                         "--channel", str(tmp_path / "chan.txt"), "--y", str(tmp_path / "y.txt"))
    assert code == 3
    assert out == ""
    assert "channel input 2 for output '0' outside 0..1" in err


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


def cover_chunks(out):
    """(spec text, zgibbs value) per cover in ``covers --zgibbs`` output."""
    chunks, spec = [], []
    for line in out.splitlines():
        if line.startswith("zgibbs="):
            chunks.append(("\n".join(spec) + "\n", line.split("=", 1)[1]))
            spec = []
        else:
            spec.append(line)
    assert not spec
    return chunks


@pytest.mark.parametrize("path", [fig1_path(), dumbbell_path()], ids=["fig1", "dumbbell"])
def test_cover_partition_values_match_built_covers(tmp_path, capsys, path):
    """covers --zgibbs prints, for every labeled 2-cover, the Gibbs partition
    function of that cover built as a graph of its own, and zgibbs --cover
    prints it for one spec, exactly at T = 1 and to 12 digits at T = 0.7."""
    from gcb.covers import build_cover, count_covers, parse_cover_spec
    from gcb.gibbs import gibbs_partition
    from gcb.nfg import parse_nfg

    nfg = parse_nfg(path)
    code, out, _ = run(capsys, "covers", "--nfg", path, "-M", "2", "--zgibbs")
    assert code == 0
    chunks = cover_chunks(out)
    assert len(chunks) == count_covers(nfg, 2)
    for spec_text, z in chunks:
        assert Fraction(z) == gibbs_partition(build_cover(parse_cover_spec(nfg, spec_text)))
    cover = tmp_path / "c.cover"
    for spec_text, z in chunks[::9]:
        cover.write_text(spec_text)
        assert run(capsys, "zgibbs", "--nfg", path, "--cover", str(cover)) == (0, f"zgibbs={z}\n", "")
        code, out, _ = run(capsys, "zgibbs", "--nfg", path, "--cover", str(cover), "-T", "0.7")
        want = gibbs_partition(build_cover(parse_cover_spec(nfg, spec_text)), 0.7)
        assert code == 0 and float(out.strip().split("=")[1]) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("spec, line", [
    pytest.param("cover M=2\nperm\n", 2, id="bare perm"),
    pytest.param("cover M=x\n", 1, id="non-integer degree"),
    pytest.param("cover M=2\nperm e2 1 x\n", 2, id="non-integer image"),
])
def test_zgibbs_malformed_cover_spec_names_its_line(tmp_path, capsys, spec, line):
    cover = tmp_path / "bad.cover"
    cover.write_text(spec)
    code, out, err = run(capsys, "zgibbs", "--nfg", fig1_path(), "--cover", str(cover))
    assert code == 3
    assert out == ""
    assert f"line {line}:" in err


ZERO_DENOMINATOR_INPUTS = {
    "nfg row": ({"g.nfg": "alphabet a 2\nhalfedge a\nfactor f a\nrow 0 1/0\nrow 1 1\n"},
                ["zgibbs", "--nfg", "g.nfg"]),
    "beta line": ({"b.beta": "beta fA 0,0 1/0\n"},
                  ["preimage-count", "--nfg", dumbbell_path(), "-M", "2", "--beta", "b.beta"]),
    "channel line": ({"h.pcm": "1 1 0\n0 1 1\n", "y.txt": "0 0 1\n",
                      "chan.txt": "W 0 0 1/0\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n"},
                     ["decode", "--decoder", "bmapd", "--pcm", "h.pcm", "--channel", "chan.txt",
                      "--y", "y.txt"]),
    "bme omega": ({}, ["bme", "--nfg", fig1_path(), "--omega", "1/0,1/2"]),
}


@pytest.mark.parametrize("case", sorted(ZERO_DENOMINATOR_INPUTS))
def test_zero_denominator_exits_3(tmp_path, capsys, monkeypatch, case):
    files, argv = ZERO_DENOMINATOR_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "zero denominator" in err
    assert "Traceback" not in err


MALFORMED_LINE_INPUTS = {
    "beta symbol": ({"b.beta": "# a comment\nbeta fA 0,x 1/2\n"},
                    ["preimage-count", "--nfg", dumbbell_path(), "-M", "2", "--beta", "b.beta"], 2),
    "beta value": ({"b.beta": "beta fA 0,0 1/2\nbeta fA 1,1 half\n"},
                   ["preimage-count", "--nfg", dumbbell_path(), "-M", "2", "--beta", "b.beta"], 2),
    "channel value": ({"h.pcm": "1 1 0\n0 1 1\n", "y.txt": "0 0 1\n",
                       "chan.txt": "W 0 0 1/0\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n"},
                      ["decode", "--decoder", "bmapd", "--pcm", "h.pcm", "--channel", "chan.txt",
                       "--y", "y.txt"], 1),
    "channel input": ({"h.pcm": "1 1 0\n0 1 1\n", "y.txt": "0 0 1\n",
                       "chan.txt": "W 0 0 9/10\nW 1 0 1/10\nW 0 one 1/10\nW 1 1 9/10\n"},
                      ["decode", "--decoder", "bmapd", "--pcm", "h.pcm", "--channel", "chan.txt",
                       "--y", "y.txt"], 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINE_INPUTS))
def test_malformed_beta_and_channel_lines_name_their_line(tmp_path, capsys, monkeypatch, case):
    """A bad number or symbol in a beta or channel file exits 3 naming its line."""
    files, argv, line = MALFORMED_LINE_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: line {line}: cannot parse ")
    assert "Traceback" not in err


ONE_EDGE_NFG = "alphabet e1 2\nhalfedge e1\nfactor f e1\n"
DECODE_ARGV = ["decode", "--decoder", "bmapd", "--pcm", "h.pcm", "--channel", "chan.txt", "--y", "y.txt"]
DECODE_FILES = {"h.pcm": "1 1 0\n0 1 1\n", "y.txt": "0 0 1\n",
                "chan.txt": "W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n"}
DUMBBELL_COVER = "cover M=2\n" + "".join(f"perm e{i} {'2 1' if i == 6 else '1 2'}\n" for i in range(1, 8))
# case: (files, argv, line, start of the message after "line N: ")
LINE_ERROR_INPUTS = {
    "nfg alphabet size": ({"g.nfg": "alphabet e1 two\nhalfedge e1\nfactor f e1\nparity\n"},
                          ["enumerate", "--nfg", "g.nfg"], 1, "cannot parse "),
    "nfg row symbol": ({"g.nfg": ONE_EDGE_NFG + "# rows\n\nrow x 1\n"},
                       ["enumerate", "--nfg", "g.nfg"], 6, "cannot parse "),
    "cover image": ({"c.cover": "cover M=2\nperm e1 1 x\n"},
                    ["zgibbs", "--nfg", dumbbell_path(), "--cover", "c.cover"], 2,
                    "expected 'perm <edge>' and 2 image numbers"),
    "cover keyword": ({"c.cover": "# a comment\ncover M=2\nperms e1 1 2\n"},
                      ["zgibbs", "--nfg", dumbbell_path(), "--cover", "c.cover"], 3, "unknown keyword 'perms'"),
    "matrix entry": (dict(DECODE_FILES, **{"h.pcm": "1 1 0\n\n0 1 x\n"}), DECODE_ARGV, 3, "cannot parse "),
    "repeated alphabet": ({"g.nfg": "alphabet a 2\nalphabet a 3\nhalfedge a\nfactor f a\nparity\n"},
                          ["enumerate", "--nfg", "g.nfg"], 2, "repeated alphabet a (first on line 1)"),
    "repeated edge": ({"g.nfg": ONE_EDGE_NFG.replace("halfedge e1\n", "halfedge e1\nhalfedge e1\n") + "parity\n"},
                      ["enumerate", "--nfg", "g.nfg"], 3, "repeated edge e1"),
    "repeated factor": ({"g.nfg": ONE_EDGE_NFG + "parity\nfactor f e1\nparity\n"},
                        ["enumerate", "--nfg", "g.nfg"], 5, "repeated factor f"),
    "repeated row": ({"g.nfg": ONE_EDGE_NFG + "row 1 1\nrow 1 5\n"},
                     ["enumerate", "--nfg", "g.nfg"], 5, "repeated row 1 of factor f (first on line 4)"),
    "row then shorthand": ({"g.nfg": ONE_EDGE_NFG + "row 1 7\nrepetition\n"},
                           ["enumerate", "--nfg", "g.nfg"], 5, "factor f: repetition after its rows"),
    "shorthand then row": ({"g.nfg": ONE_EDGE_NFG + "parity\nrow 1 1\n"},
                           ["enumerate", "--nfg", "g.nfg"], 5, "factor f: row after its parity"),
    "two shorthands": ({"g.nfg": ONE_EDGE_NFG + "parity\nparity\n"},
                       ["enumerate", "--nfg", "g.nfg"], 5, "factor f: parity after its parity"),
    "alphabet extra token": ({"g.nfg": "alphabet e1 2 3\nhalfedge e1\nfactor f e1\nparity\n"},
                             ["enumerate", "--nfg", "g.nfg"], 1, "expected 'alphabet <edge> <size>'"),
    "halfedge extra token": ({"g.nfg": ONE_EDGE_NFG.replace("halfedge e1", "halfedge e1 e2") + "parity\n"},
                             ["enumerate", "--nfg", "g.nfg"], 2, "expected 'halfedge <edge>'"),
    "fulledge missing factor": ({"g.nfg": "alphabet a 2\nfulledge a f\nfactor f a\nparity\nfactor g a\nparity\n"},
                                ["enumerate", "--nfg", "g.nfg"], 2,
                                "expected 'fulledge <edge> <factorA> <factorB>'"),
    "parity extra token": ({"g.nfg": ONE_EDGE_NFG + "parity 1\n"},
                           ["enumerate", "--nfg", "g.nfg"], 4, "expected 'parity'"),
    "repetition extra token": ({"g.nfg": ONE_EDGE_NFG + "# a comment\nrepetition e1\n"},
                               ["enumerate", "--nfg", "g.nfg"], 5, "expected 'repetition'"),
    "repeated cover header": ({"c.cover": "cover M=2\n" + DUMBBELL_COVER},
                              ["zgibbs", "--nfg", dumbbell_path(), "--cover", "c.cover"], 2, "repeated cover header"),
    "repeated perm": ({"c.cover": DUMBBELL_COVER + "perm e6 1 2\n"},
                      ["zgibbs", "--nfg", dumbbell_path(), "--cover", "c.cover"], 9,
                      "repeated perm e6 (first on line 7)"),
    "repeated beta": ({"b.beta": "beta fA 0,0 1/2\nbeta fA 1,1 1/2\nbeta fA 0,00 1/4\n"},
                      ["preimage-count", "--nfg", dumbbell_path(), "-M", "2", "--beta", "b.beta"], 3,
                      "repeated beta fA (0, 0) (first on line 1)"),
    "repeated channel entry": (dict(DECODE_FILES, **{"chan.txt": DECODE_FILES["chan.txt"].replace(
                                   "W 1 1 9/10", "W 1 1 1/2\nW 1 1 9/10")}), DECODE_ARGV, 5,
                               "repeated W 1 1 (first on line 4)"),
    "nfg row past the float range": ({"g.nfg": ONE_EDGE_NFG + "row 0 1\nrow 1 1e400\n"},
                                     ["enumerate", "--nfg", "g.nfg"], 5,
                                     "cannot parse 'row 1 1e400': '1e400' is outside the float range"),
    "beta past the float range": ({"b.beta": "beta fA 0,0 1e400\n"},
                                  ["preimage-count", "--nfg", dumbbell_path(), "-M", "2", "--beta", "b.beta"], 1,
                                  "cannot parse 'beta fA 0,0 1e400': '1e400' is outside the float range"),
    "channel past the float range": (dict(DECODE_FILES, **{"chan.txt": DECODE_FILES["chan.txt"].replace(
                                         "W 1 1 9/10", "W 1 1 1e400")}), DECODE_ARGV, 4,
                                     "cannot parse 'W 1 1 1e400': '1e400' is outside the float range"),
}


@pytest.mark.parametrize("case", sorted(LINE_ERROR_INPUTS))
def test_malformed_or_repeated_lines_name_their_line(tmp_path, capsys, monkeypatch, case):
    """A malformed line of a graph, cover spec or dense matrix, and a line
    that repeats the key of an earlier one in any line format, exits 3
    naming the line."""
    files, argv, line, message = LINE_ERROR_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: line {line}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["zgibbs"], ["enumerate"], ["zbethe-min", "-T", "0"], ["spa"]])
def test_a_row_past_the_float_range_exits_3(tmp_path, capsys, argv):
    """A decimal past the float range is refused where it is read, naming
    its line, and reaches no sum, solver or sweep."""
    path = tmp_path / "g.nfg"
    path.write_text(ONE_EDGE_NFG + "row 0 1\nrow 1 1e400\n")
    code, out, err = run(capsys, *argv, "--nfg", str(path))
    assert (code, out) == (3, "")
    assert err == "error: line 5: cannot parse 'row 1 1e400': '1e400' is outside the float range\n"


@pytest.mark.parametrize("argv", [
    ["zgibbs", "-T", "0.5"],
    ["zbethe-m", "-M", "2", "-T", "0.5"],
    ["zbethe-m", "-M", "2", "-T", "0.5", "--method", "typesum"],
])
def test_a_sum_past_the_float_range_exits_3(tmp_path, capsys, argv):
    """A table value of 10^214 is read exactly, but its power 1/T passes
    the float range: one error line, exit 3."""
    path = tmp_path / "g.nfg"
    path.write_text(ONE_EDGE_NFG + "row 0 1\nrow 1 1" + "0" * 214 + "\n")
    code, out, err = run(capsys, *argv, "--nfg", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: a value left the float range: ") and err.count("\n") == 1


def test_a_sampled_sum_past_the_float_range_stays_exact(tmp_path, capsys):
    """With a table value of 10^214 every 2-cover's sum passes the float
    range; the sampled mean stays a Fraction and is rooted as the
    enumeration's is, so both print the same pre_root and zbethe_m."""
    path = tmp_path / "g.nfg"
    path.write_text(ONE_EDGE_NFG + "row 0 1\nrow 1 1" + "0" * 214 + "\n")
    code, out, err = run(capsys, "zbethe-m", "-M", "2", "--samples", "3", "--seed", "1", "--nfg", str(path))
    assert (code, err) == (0, "")
    _, enumerated, _ = run(capsys, "zbethe-m", "-M", "2", "--nfg", str(path))
    assert "zbethe_m=1e+214" in enumerated.splitlines()
    assert out.splitlines()[:3] == enumerated.splitlines()[:3]


@pytest.mark.parametrize("text, line, message", [
    ("e1 0\n# e2 next\ne2 x\n", 3, "cannot parse 'e2 x': "),
    ("e1 0\ne2\n", 2, "expected '<edge> <symbol>'"),
    ("e1 0\ne2 1\ne1 1\n", 3, "repeated e1 (first on line 1)"),
])
def test_assignment_lines_name_their_line(text, line, message):
    with pytest.raises(ParseError) as info:
        _load_assignment(text)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {message}")


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


@pytest.mark.parametrize("flag, value", [("--max-iters", "-3"), ("--tol", "-1")])
def test_spa_negative_budget_exit(capsys, flag, value):
    code, out, err = run(capsys, "spa", "--nfg", dumbbell_path(), flag, value)
    assert code == 3
    assert out == ""
    assert "must be non-negative" in err
