"""Run one extquot command in this fresh interpreter, as the console script does.

Usage: python3 child.py TRACE [extquot arguments...]

TRACE is 1 to wrap the program's functions in spans before the command runs,
0 to run it untouched.  With no extquot arguments the interpreter only sets up
and exits (a set-up probe).  The command's stdout and exit code pass through
unchanged; after the command, one line starting with ``RECORD_MARK`` and
holding a JSON record goes to stderr: the perf_counter time at which
``extquot.cli`` was imported and ready, the import time, the peak RSS of
this process image and, when traced, the span aggregates.
"""

import time

started = time.perf_counter()

import sys  # noqa: E402

RECORD_MARK = "@@perfbench "


def peak_rss_kb() -> int:
    """Peak resident set of this process image, from VmHWM.

    ru_maxrss is not used: Linux keeps the larger of the old and the new
    image's peak across exec, so it would carry the peak of the benchmark
    process that spawned this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    import extquot.cli

    ready = time.perf_counter()
    import json

    trace, args = sys.argv[1] == "1", sys.argv[2:]
    record = {"ready": ready, "import_s": ready - started}
    code = 0
    if args:
        run = extquot.cli.main.main
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.wrap("cli.command", run)
        try:
            run(args=args, prog_name="extquot")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.stdout.flush()
            if tracer is not None:
                record.update(tracer.report())
    record["rss_kb"] = peak_rss_kb()
    sys.stderr.write(RECORD_MARK + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
