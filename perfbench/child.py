"""Fresh-interpreter half of the benchmark.

    python3 perfbench/child.py SRC import
        time ``import cstriple.cli`` (the set-up a user pays on every run)
    python3 perfbench/child.py SRC verify MANIFEST TRACE
        run ``cstriple verify --all --json MANIFEST`` through ``cli.main``,
        traced when TRACE is 1

The last line of standard output is a JSON reply for the parent.  Only the
import, or only the ``cli.main`` call, is timed, in CPU time between two
host-speed probes (see hostspeed.py).
"""

import sys
from time import perf_counter, process_time

import hostspeed


def main(argv: list[str]) -> int:
    src, mode = argv[0], argv[1]
    sys.path.insert(0, src)
    if mode == "import":
        before = hostspeed.probe()
        start = process_time()
        import cstriple.cli  # noqa: F401

        seconds = process_time() - start
        after = hostspeed.probe()
        reply = {}
    else:
        import contextlib
        import io

        from cstriple import cli

        manifest, traced = argv[2], argv[3] == "1"
        tracer = None
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                before = hostspeed.probe()
                waited, wall = hostspeed.run_delay(), perf_counter()
                start = process_time()
                code = cli.main(["verify", "--all", "--json", manifest])
                seconds = process_time() - start
                wall, waited = perf_counter() - wall, hostspeed.run_delay() - waited
                after = hostspeed.probe()
        finally:
            if tracer:
                tracer.end_request()
                tracer.uninstall()
        import resource

        reply = {
            "exit": code,
            "wall_per_cpu": hostspeed.wall_per_cpu(wall, waited, seconds),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.sums() if tracer else None,
        }
    reply["seconds"] = hostspeed.scale(seconds, before, after)
    reply["probe"] = (before + after) / 2

    import json
    from pathlib import Path

    import cstriple

    if Path(src).resolve() not in Path(cstriple.__file__).resolve().parents:
        print(f"cstriple was imported from {cstriple.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
