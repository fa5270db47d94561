"""Fresh-interpreter half of the benchmark.

    python3 benchmarks/child.py setup <workload> <seed> <workdir>
        Time the imports, generate the workload's inputs and build its MUB
        sets, then print the timestamps as one JSON object.

    python3 benchmarks/child.py cli <spans.json> <subcommand> [args...]
        Run the quantinfo CLI with every layer traced, timing build_parser,
        parse_args, the subcommand handler and json.dumps/print around the
        CLI's own run(), and write the spans to <spans.json> at exit.

Timestamps are time.perf_counter(), which on Linux reads the system-wide
monotonic clock, so the parent can subtract its own readings from them.
"""

import time

T_FIRST = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def timed_imports(module: str) -> dict:
    start = time.perf_counter()
    import numpy  # noqa: F401
    numpy_done = time.perf_counter()
    __import__(module)
    return {"t_first": T_FIRST, "numpy_s": numpy_done - start,
            "quantinfo_s": time.perf_counter() - numpy_done}


def setup(name: str, seed: str, workdir: str) -> int:
    record = timed_imports("quantinfo")
    import workloads
    workloads.setup(name, int(seed), workdir).close()
    record["t_end"] = time.perf_counter()
    print(json.dumps(record))
    return 0


class _Json:
    """Stand-in for the json module inside quantinfo.cli, with dumps traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def cli(spans_path: str, *argv: str) -> int:
    record = timed_imports("quantinfo.cli")
    import builtins

    from tracer import Tracer

    cli_mod = sys.modules["quantinfo.cli"]
    tracer = Tracer()
    tracer.install()
    for attr, fn in list(vars(cli_mod).items()):
        if attr.startswith("_cmd_"):
            setattr(cli_mod, attr, tracer.wrap("cli.handler", "cli", fn))
    build_parser = cli_mod.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse_args", "cli", parser.parse_args)
        return parser

    cli_mod.build_parser = traced_build_parser
    cli_mod.json = _Json(tracer.wrap("cli.format", "cli", json.dumps))
    cli_mod.print = tracer.wrap("cli.format", "cli", builtins.print)
    try:
        code = cli_mod.run(list(argv))
    finally:
        sys.stdout.flush()
        record.update(tracer.export())
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    modes = {"setup": setup, "cli": cli}
    if len(sys.argv) < 2 or sys.argv[1] not in modes:
        sys.exit(__doc__)
    sys.exit(modes[sys.argv[1]](*sys.argv[2:]))
