"""One benchmark process: import the package, or run one `mlmc run`.

    python3 bench/worker.py setup
        Import `adaptive_mlmc.cli` and print "ready"; the parent times the
        interval from spawning this interpreter to reading that line.

    python3 bench/worker.py run RESULT_JSON TRACE -- <mlmc run arguments>
        Call `adaptive_mlmc.cli.main(["run", ...])` once, with the tracer
        installed when TRACE is 1, and write the wall time of the call, its
        return code, the process's peak RSS and (traced) the span aggregate
        to RESULT_JSON.  An untraced run is bracketed by two passes of the
        calibration kernel (bench/calibration.py), whose times are written
        too.

The package is imported from `src/` of the current directory, ahead of any
installed copy.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def _run(result_path, trace, cli_args):
    import json
    import resource
    import time
    from contextlib import redirect_stdout
    from io import StringIO

    import calibration
    from adaptive_mlmc import cli

    tracer = None
    calibration_s = []
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    else:
        calibration.warm_up()
        calibration_s.append(calibration.measure())
    start = time.perf_counter()
    with redirect_stdout(StringIO()):
        code = cli.main(["run", *cli_args])
    wall = time.perf_counter() - start
    if not trace:
        calibration_s.append(calibration.measure())
    result = {
        "exit_code": code,
        "wall_s": wall,
        "calibration_s": calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.aggregate() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main(argv):
    if argv[:1] == ["setup"]:
        import adaptive_mlmc.cli  # noqa: F401
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if len(argv) >= 3 and argv[0] == "run" and "--" in argv:
        split = argv.index("--")
        result_path, trace = argv[1], argv[2] == "1"
        _run(result_path, trace, argv[split + 1:])
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
