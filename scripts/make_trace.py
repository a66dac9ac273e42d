#!/usr/bin/env python3
"""Offline trace ingestion: turn a packet log into a bucketed rate trace.

Input lines are either ``timestamp_s,flow_id`` or ``timestamp_s,src,dst``
(the flow id then becomes ``src-dst``). Packets are counted per flow per
bucket and written as rates in the versioned trace format the simulator
consumes. Raw capture parsing (pcap) is out of scope; export your capture
to this text form first, e.g. with tshark:

    tshark -r cap.pcap -T fields -E separator=, \
        -e frame.time_epoch -e ip.src -e ip.dst > packets.csv
    python scripts/make_trace.py packets.csv backbone.trace --bucket-ms 100
"""

import argparse
import math
import sys
from collections import defaultdict
from contextlib import closing
from decimal import Decimal, InvalidOperation


def _bucket_ms(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _utf8_lines(path: str):
    """The lines of a UTF-8 text file, split as ``open`` splits them; a byte
    that is not UTF-8 raises ValueError naming the file and its line. The
    same as flowsamp.trafficgen._utf8_lines: this script runs without the
    package."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass    # the decoder reads ahead; find the line on a second pass
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            for c in line:
                if "\udc80" <= c <= "\udcff":
                    raise ValueError(f"{path}:{lineno}: byte {ord(c) - 0xdc00:#04x} "
                                     "is not UTF-8")
    raise ValueError(f"{path}: not UTF-8")


def count_packets(path: str, bucket_ms: float) -> dict[tuple[int, str], int]:
    """Packets per (bucket, flow id), buckets counted from the first line's
    timestamp; a malformed line raises ``ValueError`` naming it. Timestamps
    are read as exact decimals, so a packet on a bucket boundary opens that
    bucket (binary floats would put ``10.2 - 10.0`` just below 0.2 s)."""
    counts: dict[tuple[int, str], int] = defaultdict(int)
    width_ms = Decimal(repr(bucket_ms))
    t0 = None
    with closing(_utf8_lines(path)) as lines:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 fields")
            try:
                ts = Decimal(parts[0])
            except InvalidOperation:
                ts = Decimal("NaN")
            if not ts.is_finite():
                raise ValueError(f"{path}:{lineno}: timestamp {parts[0]!r} is not a finite "
                                 "number")
            if not all(parts[1:]):
                raise ValueError(f"{path}:{lineno}: empty flow id field")
            fid = "-".join(parts[1:])
            if t0 is None:
                t0 = ts
            if ts < t0:
                raise ValueError(f"{path}:{lineno}: timestamp {parts[0]} is before the first "
                                 f"line's {float(t0)!r}")
            counts[(int((ts - t0) * 1000 // width_ms), fid)] += 1
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="packet log (CSV lines, see module docstring)")
    parser.add_argument("output", help="trace file to write")
    parser.add_argument("--bucket-ms", type=_bucket_ms, default=100.0)
    args = parser.parse_args()
    try:
        counts = count_packets(args.input, args.bucket_ms)
        bucket_s = args.bucket_ms / 1000.0
        with open(args.output, "w") as out:
            out.write(f"#dsamp-trace v1\n# bucket_ms={args.bucket_ms:.17g}\n")
            for (bucket, fid), n in sorted(counts.items()):
                out.write(f"{bucket * args.bucket_ms:.17g},{fid},{n / bucket_s!r}\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}: {len(counts)} entries, "
          f"{len({f for _, f in counts})} flows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
