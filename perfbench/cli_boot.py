"""Run one rcc CLI command in this process with the tracer installed.

    python cli_boot.py SPANS_OUT ARG...

Times `import rcc.cli` before the tracer is loaded, runs `rcc.cli.main` on
the remaining arguments, and writes the spans together with the import
time, the run time, the exit code and whether `scipy.special` was loaded
to SPANS_OUT as JSON. Exits with the command's exit code.
"""

import json
import sys
import time


def main() -> int:
    spans_out, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import rcc.cli

    t1 = time.perf_counter()
    import tracer

    tr = tracer.Tracer()
    tr.current_op = 0
    tracer.install(tr)
    code = 0
    t2 = time.perf_counter()
    try:
        rcc.cli.main(args, prog_name="rcc")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    t3 = time.perf_counter()
    sys.stdout.flush()
    payload = tr.to_dict()
    payload["boot"] = {
        "import_ms": (t1 - t0) * 1e3,
        "run_ms": (t3 - t2) * 1e3,
        "scipy_special_loaded": int("scipy.special" in sys.modules),
        "exit_code": code,
    }
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
