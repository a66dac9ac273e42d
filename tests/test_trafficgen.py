import hashlib
import math

import numpy as np
import pytest

from flowsamp import (Distribution, MixtureConfig, RateModel, RateProcess,
                      draw_flow_model, generate_model_driven, kbps_to_pps,
                      load_trace, sample_rates, save_trace)
from flowsamp.cli import main
from flowsamp.trafficgen import BUCKET_LINE, PACKET_BYTES, TRACE_HEADER


def truncated_normal_mean(mean, sigma):
    """Analytic mean of a normal conditioned on being non-negative."""
    beta = mean / sigma
    pdf = math.exp(-0.5 * beta * beta) / math.sqrt(2 * math.pi)
    cdf = 0.5 * (1 + math.erf(beta / math.sqrt(2)))
    return mean + sigma * pdf / cdf


@pytest.mark.parametrize("dist", list(Distribution))
def test_zero_cov_is_constant(dist):
    model = RateModel(dist, 150.0, 0.0)
    out = sample_rates(model, 64, np.random.default_rng(0))
    assert (out == 150.0).all()


def test_trunc_normal_mean_shift():
    # heavy truncation at cov 1 lifts the sample mean above the nominal one
    model = RateModel(Distribution.TRUNC_NORMAL, 200.0, 1.0)
    out = sample_rates(model, 100_000, np.random.default_rng(1))
    expected = truncated_normal_mean(200.0, 200.0)
    assert expected > 200.0
    assert out.mean() == pytest.approx(expected, rel=0.03)
    assert out.min() >= 0.0


# Where truncation at 0 is actually negligible: gamma and uniform are
# non-negative by construction at any cov here; rejection truncation starts
# to distort the normal beyond cov ~0.4 and the fat-tailed t much earlier.
CALIBRATION_CASES = [
    (Distribution.GAMMA, 0.3), (Distribution.GAMMA, 0.5),
    (Distribution.UNIFORM, 0.3), (Distribution.UNIFORM, 0.5),
    (Distribution.TRUNC_NORMAL, 0.2), (Distribution.TRUNC_NORMAL, 0.3),
    (Distribution.T_LOCATION_SCALE, 0.1), (Distribution.T_LOCATION_SCALE, 0.15),
]


@pytest.mark.parametrize("dist,cov", CALIBRATION_CASES)
def test_moment_calibration_light_truncation(dist, cov):
    model = RateModel(dist, 400.0, cov)
    out = sample_rates(model, 100_000, np.random.default_rng(2))
    assert out.mean() == pytest.approx(400.0, rel=0.02)
    assert out.std(ddof=1) / out.mean() == pytest.approx(cov, rel=0.02)
    assert out.min() >= 0.0


def test_uniform_high_cov_clamped_and_flagged():
    model = RateModel(Distribution.UNIFORM, 100.0, 1.0)
    with pytest.warns(UserWarning, match="clamp"):
        out = sample_rates(model, 1000, np.random.default_rng(3))
    assert out.min() >= 0.0


def test_model_validation():
    # NaN would otherwise draw all-NaN series, and an infinite cov divide by zero
    for mean, cov, field in [(0.0, 0.5, "mean_pps"), (math.nan, 1.0, "mean_pps"),
                             (math.inf, 1.0, "mean_pps"), (10.0, -0.1, "cov"),
                             (100.0, math.nan, "cov"), (100.0, math.inf, "cov")]:
        with pytest.raises(ValueError, match=field):
            RateModel(Distribution.GAMMA, mean, cov)


def test_generation_deterministic(toy_network):
    cfg = MixtureConfig()
    a = generate_model_driven(toy_network, cfg, 2.0, seed=9)
    b = generate_model_driven(toy_network, cfg, 2.0, seed=9)
    assert set(a.rates) == {"f1", "f2", "f3", "f4"}
    for fid in a.rates:
        assert (a.rates[fid] == b.rates[fid]).all()


@pytest.mark.parametrize("horizon", [0.15, 2.05, 1e-3])
def test_generation_rejects_a_horizon_off_the_bucket_grid(toy_network, horizon):
    with pytest.raises(ValueError, match=f"horizon must be a whole number of 0.1 s buckets, "
                                         f"got {horizon:g} s"):
        generate_model_driven(toy_network, MixtureConfig(), horizon, seed=0)


def test_flow_models_match_generated_series(toy_network):
    # scenario builders rely on this: the declared model for a flow is the
    # one the generator actually uses
    cfg = MixtureConfig(mean_choices_kbps=(100.0, 400.0))
    seen = set()
    for f in toy_network.flows:
        model = draw_flow_model(cfg, 5, f.id)
        seen.add((model.mean_pps, model.cov))
        assert model.mean_pps in (100.0, 400.0)
        assert model.cov in (cfg.cov_low, cfg.cov_high)
    process = generate_model_driven(toy_network, cfg, 1000.0, seed=5)
    for f in toy_network.flows:
        model = draw_flow_model(cfg, 5, f.id)
        series = process.rates[f.id]
        if model.cov == cfg.cov_low:  # negligible truncation
            assert series.mean() == pytest.approx(model.mean_pps, rel=0.02)


def test_kbps_conversion():
    assert PACKET_BYTES == 1000
    assert kbps_to_pps(200.0) == 200.0
    assert kbps_to_pps(3.0) == 3.0


def test_rate_process_validation():
    with pytest.raises(ValueError):
        RateProcess(0.1, 3, {"f": np.array([1.0, 2.0])})
    with pytest.raises(ValueError):
        RateProcess(0.1, 2, {"f": np.array([1.0, -2.0])})
    p = RateProcess(0.1, 2, {"f": np.array([1.0, 2.0])})
    assert (p.series("missing") == 0).all()
    assert p.horizon == pytest.approx(0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_process_rejects_non_finite_rates(bad):
    # a one-flow process whose first 10 of 20 buckets are bad fails here,
    # naming the flow, before any query over [0, 2) s or [1, 2) s replays it
    series = np.full(20, 10.0)
    series[:10] = bad
    with pytest.raises(ValueError, match="flow 'f': rate is not finite"):
        RateProcess(0.1, 20, {"f": series})


def test_trace_scaling_preserves_cov(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(f"{TRACE_HEADER}\n0,f,100\n100,f,200\n")
    raw = load_trace(str(path), 1.0, 0.1)
    scaled = load_trace(str(path), 100.0, 0.1)
    assert list(scaled.rates["f"]) == [1.0, 2.0]
    def cov(series):
        return series.std(ddof=1) / series.mean()
    assert abs(cov(raw.rates["f"]) - cov(scaled.rates["f"])) < 1e-9


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    original = RateProcess(0.1, 50, {
        "a": rng.uniform(0, 500, 50).round(3),
        "b": rng.uniform(0, 500, 50).round(3),
    })
    path = tmp_path / "rt.trace"
    save_trace(original, path=str(path))
    again = load_trace(str(path), 1.0, 0.1)
    for fid in original.rates:
        assert np.allclose(again.series(fid)[:50], original.rates[fid])


def test_trace_round_trip_keeps_far_bucket_starts(tmp_path):
    # bucket 1,234,567 starts at 123,456,700 ms; six significant digits
    # would write 1.23457e+08 and reload it as bucket 1,234,570
    series = np.zeros(1_234_568)
    series[1_234_567] = 5.0
    path = tmp_path / "far.trace"
    save_trace(RateProcess(0.1, len(series), {"f": series}), str(path))
    again = load_trace(str(path), 1.0, 0.1)
    assert again.n_buckets == len(series)
    assert np.flatnonzero(again.rates["f"]).tolist() == [1_234_567]


def test_trace_missing_entries_read_as_zero(tmp_path):
    path = tmp_path / "gap.trace"
    path.write_text(f"{TRACE_HEADER}\n0,f,10\n300,f,40\n")
    p = load_trace(str(path), 1.0, 0.1)
    assert list(p.rates["f"]) == [10.0, 0.0, 0.0, 40.0]


def test_trace_is_refused_at_a_bucket_other_than_its_own(tmp_path):
    # read at 0.05 s, this 100 ms trace would load as 19 buckets with a zero
    # between every two of its rates
    path = tmp_path / "coarse.trace"
    save_trace(RateProcess(0.1, 10, {"f": np.full(10, 300.0)}), str(path))
    assert path.read_text().splitlines()[1] == f"{BUCKET_LINE}100"
    assert load_trace(str(path), 1.0, 0.1).n_buckets == 10
    for bucket in (0.05, 0.2):
        with pytest.raises(ValueError, match=rf":2: trace written on the 100 ms grid, "
                                             rf"read at bucket {bucket} s"):
            load_trace(str(path), 1.0, bucket)


def test_trace_round_trip_of_a_flow_silent_in_every_odd_bucket(tmp_path):
    # its starts all sit on a 200 ms grid, yet it loads at its own 100 ms
    path = tmp_path / "sparse.trace"
    save_trace(RateProcess(0.1, 5, {"f": np.array([5.0, 0.0, 7.0, 0.0, 9.0])}), str(path))
    assert list(load_trace(str(path), 1.0, 0.1).rates["f"]) == [5.0, 0.0, 7.0, 0.0, 9.0]
    # its last rate is not 0, so only its nonzero rates are written
    assert path.read_text().splitlines()[2:] == ["0,f,5.0", "200,f,7.0", "400,f,9.0"]


def test_trace_round_trip_keeps_the_horizon_and_all_zero_flows(tmp_path):
    # zero rates are left out, so without a row for its last bucket the
    # trailing zeros would shorten the horizon and the silent flow vanish
    quiet_tail = np.concatenate([np.arange(1.0, 6.0), np.zeros(5)])
    original = RateProcess(0.1, 10, {"f": quiet_tail, "silent": np.zeros(10)})
    path = tmp_path / "tail.trace"
    save_trace(original, str(path))
    again = load_trace(str(path), 1.0, 0.1)
    assert again.n_buckets == 10
    assert sorted(again.rates) == ["f", "silent"]
    for fid, series in original.rates.items():
        assert again.rates[fid].tolist() == series.tolist()
    assert [r for r in path.read_text().splitlines() if r.endswith(",0.0")] == \
        ["900,f,0.0", "900,silent,0.0"]


def test_empty_trace(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_text(f"{TRACE_HEADER}\n")
    p = load_trace(str(path), 1.0, 0.1)
    assert p.n_buckets == 0 and not p.rates


@pytest.mark.parametrize("body,match", [
    ("nonsense\n", "header"),
    (f"{TRACE_HEADER}\n0,f\n", ":2"),
    (f"{TRACE_HEADER}\n0,f,abc\n", "malformed"),
    (f"{TRACE_HEADER}\n0,f,-5\n", "negative"),
    (f"{TRACE_HEADER}\n55,f,5\n", "grid"),
    (f"{TRACE_HEADER}\n0,f,5\n0,f,6\n", "duplicate"),
    (f"{TRACE_HEADER}\n0,f,5\n100, ,6\n", ":3: empty flow id"),
    (f"{TRACE_HEADER}\n{BUCKET_LINE}abc\n0,f,5\n", ":2: malformed bucket_ms 'abc'"),
    (f"{TRACE_HEADER}\n0,f,nan\n", ":2: rate_pps"),
    (f"{TRACE_HEADER}\n0,f,5\n100,f,inf\n", ":3: rate_pps"),
    (f"{TRACE_HEADER}\nnan,f,5\n", ":2: bucket_start_ms"),
    (f"{TRACE_HEADER}\n-inf,f,5\n", ":2: bucket_start_ms"),
    (f"{TRACE_HEADER}\n0,f,1\n100,f,2\n200,f,3\n-100,f,9\n", ":5: bucket_start_ms"),
    # 6.9 EiB of 100 ms buckets, then more than numpy's largest dimension:
    # both fail at once, touching no memory
    (f"{TRACE_HEADER}\n0,f,5\n1e20,f,5\n100,g,3\n", ":3: bucket_start_ms 1e20 needs"),
    (f"{TRACE_HEADER}\n0,f,5\n1e21,f,5\n100,g,3\n", ":3: bucket_start_ms 1e21 needs"),
])
def test_trace_malformed_lines(tmp_path, body, match):
    path = tmp_path / "bad.trace"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        load_trace(str(path), 1.0, 0.1)


def test_trace_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # the bad byte sits past the decoder's first read-ahead chunk
    path = tmp_path / "latin1.trace"
    rows = "".join(f"{k * 100},f,5\n" for k in range(2000))
    path.write_bytes(f"{TRACE_HEADER}\n{rows}".encode() + b"0,caf\xe9,5\n")
    with pytest.raises(ValueError, match="latin1.trace:2002: byte 0xe9 is not UTF-8"):
        load_trace(str(path), 1.0, 0.1)


def test_trace_unknown_flow_gate(tmp_path):
    path = tmp_path / "u.trace"
    path.write_text(f"{TRACE_HEADER}\n0,ghost,5\n")
    with pytest.raises(ValueError, match="unknown flow"):
        load_trace(str(path), 1.0, 0.1, known_flows={"f"})
    p = load_trace(str(path), 1.0, 0.1, known_flows=None)
    assert "ghost" in p.rates


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_trace_rejects_bad_scale_divisor_and_bucket(tmp_path, value):
    path = tmp_path / "t.trace"
    path.write_text(f"{TRACE_HEADER}\n0,f,5\n")
    with pytest.raises(ValueError, match="scale_divisor"):
        load_trace(str(path), value, 0.1)
    with pytest.raises(ValueError, match="bucket"):
        load_trace(str(path), 1.0, value)


def _make_trace(tmp_path, capsys, log: str | bytes, *flags: str) -> tuple[int, str]:
    """``flowsamp ingest`` from ``log`` to out.trace: its exit code and stderr."""
    (tmp_path / "packets.csv").write_bytes(log.encode() if isinstance(log, str) else log)
    try:
        code = main(["ingest", "--packets", str(tmp_path / "packets.csv"),
                     "--out", str(tmp_path / "out.trace"), *flags])
    except SystemExit as exc:   # argparse's own rejections
        code = exc.code
    return code, capsys.readouterr().err


def test_make_trace_counts_packets_per_bucket(tmp_path, capsys):
    code, err = _make_trace(tmp_path, capsys, "10.0,a\n10.05,a\n10.15,x,y\n10.35,a\n")
    assert code == 0, err
    p = load_trace(str(tmp_path / "out.trace"), 1.0, 0.1)
    assert list(p.rates["a"]) == [20.0, 0.0, 0.0, 10.0]
    assert list(p.rates["x-y"]) == [0.0, 10.0, 0.0, 0.0]


def test_make_trace_packet_on_bucket_boundary_opens_that_bucket(tmp_path, capsys):
    # 10.2 - 10.0 is just below 0.2 in binary floats
    code, err = _make_trace(tmp_path, capsys, "10.0,a\n10.2,a\n", "--bucket-ms", "100")
    assert code == 0, err
    lines = (tmp_path / "out.trace").read_text().splitlines()
    assert lines[1] == f"{BUCKET_LINE}100"
    assert [line.split(",")[0] for line in lines[2:]] == ["0", "200"]
    p = load_trace(str(tmp_path / "out.trace"), 1.0, 0.1)
    assert list(p.rates["a"]) == [10.0, 0.0, 10.0]
    with pytest.raises(ValueError, match="100 ms grid, read at bucket 0.05 s"):
        load_trace(str(tmp_path / "out.trace"), 1.0, 0.05)


def test_make_trace_keeps_far_bucket_starts(tmp_path, capsys):
    # at 1 ms buckets a packet 1234.567 s after the first starts bucket
    # 1,234,567, which six significant digits would write as 1.23457e+06
    code, err = _make_trace(tmp_path, capsys, "0.0,a\n1234.567,a\n", "--bucket-ms", "1")
    assert code == 0, err
    lines = (tmp_path / "out.trace").read_text().splitlines()
    assert lines[-1].split(",")[0] == "1234567"
    p = load_trace(str(tmp_path / "out.trace"), 1.0, 0.001)
    assert np.flatnonzero(p.rates["a"]).tolist() == [0, 1_234_567]


@pytest.mark.parametrize("log,flags,match", [
    ("abc,a\n", [], "packets.csv:1: timestamp 'abc'"),
    ("1.0,a\nnan,a\n", [], "packets.csv:2: timestamp 'nan'"),
    ("1.0,a\ninf,a\n", [], "packets.csv:2: timestamp 'inf'"),
    ("5.0,a\n1.0,a\n", [], "packets.csv:2: timestamp 1.0 is before"),
    ("1.0,a,b,c\n", [], "packets.csv:1: expected 2 or 3 fields"),
    ("1.0,\n", [], "packets.csv:1: empty flow id"),
    ("1.0,a\n", ["--bucket-ms", "0"], "--bucket-ms"),
    ("1.0,a\n", ["--bucket-ms", "nan"], "--bucket-ms"),
    ("1.0,a\n", ["--bucket-ms", "-5"], "--bucket-ms"),
    ("1.0,a\n", ["--bucket-ms", "x"], "--bucket-ms"),
    (b"1.0,a\n1.5,caf\xe9\n", [], "packets.csv:2: byte 0xe9 is not UTF-8"),
    # one packet in a 1e-323 s bucket is an infinite rate, which load_trace refuses
    ("1.0,a\n1.0,a\n", ["--bucket-ms", "1e-320"], "--bucket-ms 1e-320 is too narrow"),
    # bucket indices of more digits than the 28-digit decimal context holds,
    # and a timestamp difference past its exponent range
    ("1.0,a\n1e400,a\n", [], "packets.csv:2: timestamp 1e400 is too many 100.0 ms buckets"),
    ("1.0,a\n1e999999,a\n", [],
     "packets.csv:2: timestamp 1e999999 is too many 100.0 ms buckets"),
    ("1.0,a\n2.0,a\n", ["--bucket-ms", "1e-320"],
     "packets.csv:2: timestamp 2.0 is too many 1e-320 ms buckets"),
    # bucket 1e9 starts at 1e309 ms, past the float range
    ("0,a\n1e306,a\n", ["--bucket-ms", "1e300"],
     "packets.csv:2: timestamp 1e306 starts a bucket past the float range"),
    # 1e-322 ms is 0 s
    ("1.0,a\n", ["--bucket-ms", "1e-322"], "--bucket-ms 1e-322 is too narrow: it is 0 s wide"),
])
def test_make_trace_rejects_malformed_input(tmp_path, capsys, log, flags, match):
    code, err = _make_trace(tmp_path, capsys, log, *flags)
    assert code == 2
    assert match in err and "Traceback" not in err
    assert not (tmp_path / "out.trace").exists()


# 2- and 3-field lines, a comment, a blank line, padded fields, two packets
# in one bucket, packets on the 1 ms boundaries of 10.001 and 10.002 s and a
# far bucket, 1,234,567 ms on
PINNED_LOG = ("# tshark export\n10.0,a\n10.0002,a\n10.0004,x,y\n\n10.001,a\n10.0015, b \n"
              "10.002,x,y\n10.002,a\n1244.567,a\n1244.5675,b\n")


def test_make_trace_writes_the_pinned_bytes(tmp_path, capsys):
    # the digest of what the standalone packet-log script wrote from this log
    code, err = _make_trace(tmp_path, capsys, PINNED_LOG, "--bucket-ms", "1")
    assert code == 0, err
    assert hashlib.sha256((tmp_path / "out.trace").read_bytes()).hexdigest() == \
        "969ea3df04619865d10c30159ecdb512d69e53a6d08aa5d5571f843ae402d301"


def test_ingested_trace_round_trips_through_save_trace(tmp_path, capsys):
    code, err = _make_trace(tmp_path, capsys, PINNED_LOG, "--bucket-ms", "1")
    assert code == 0, err
    first = load_trace(str(tmp_path / "out.trace"), 1.0, 0.001)
    save_trace(first, str(tmp_path / "saved.trace"))
    again = load_trace(str(tmp_path / "saved.trace"), 1.0, 0.001)
    assert (again.bucket, again.n_buckets) == (first.bucket, first.n_buckets) == (0.001, 1_234_568)
    assert again.rates.keys() == first.rates.keys() == {"a", "b", "x-y"}
    for fid, series in first.rates.items():
        assert np.array_equal(again.rates[fid], series)
    assert first.rates["a"][:3].tolist() == [2000.0, 1000.0, 1000.0]
