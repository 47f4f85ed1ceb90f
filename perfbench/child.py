"""One benchmark operation, run in its own process by run.py.

    child.py cli --spans PATH -- ARGV...
        Run the boolebell CLI in-process with every layer traced, exactly as
        ``python -m boolebell ARGV...`` would, then write the spans to PATH.

    child.py exact --input PATH --timing PATH [--spans PATH]
        Read a batch of sign triples, time SignSequence construction plus
        boole_bell_lhs_exact and boole_bell_lhs_prob over the whole batch,
        print one line of results per triple and write the timing to the
        timing file.

The package is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_boolebell() -> float:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import boolebell.cli  # noqa: F401  (the import is what is timed)

    return time.perf_counter() - start


def read_triples(path: str) -> list[tuple[int, int, int, int]]:
    """Inverse of the writer in workloads.py: u32 count, then per triple a
    u32 length and three little-endian bit blobs of ceil(length / 8) bytes."""
    blob = Path(path).read_bytes()
    (count,) = struct.unpack_from("<I", blob, 0)
    pos = 4
    triples = []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        width = -(-n // 8)
        f, g, h = (
            int.from_bytes(blob[pos + i * width : pos + (i + 1) * width], "little")
            for i in range(3)
        )
        pos += 3 * width
        triples.append((n, f, g, h))
    return triples


def _exact(args) -> int:
    from boolebell import sequences

    triples = read_triples(args.input)
    sign_sequence = sequences.SignSequence
    lhs_exact = sequences.boole_bell_lhs_exact
    lhs_prob = sequences.boole_bell_lhs_prob
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for n, f_bits, g_bits, h_bits in triples:
        f = sign_sequence(n, f_bits)
        g = sign_sequence(n, g_bits)
        h = sign_sequence(n, h_bits)
        results.append((lhs_exact(f, g, h), *lhs_prob(f, g, h)))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    sys.stdout.write("".join(f"{lhs} {left} {right}\n" for lhs, left, right in results))
    Path(args.timing).write_text(json.dumps({"wall_s": wall, "cpu_s": cpu}))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("cli", "exact"))
    parser.add_argument("--spans")
    parser.add_argument("--input")
    parser.add_argument("--timing")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])

    import_s = _import_boolebell()
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.mode == "cli":
        from boolebell import cli

        code = cli.run(argv[split + 1 :])
    else:
        code = _exact(args)
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(args.spans, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
