"""Run one ebk CLI invocation in this fresh interpreter and record it.

    python3 launch.py RECORD TRACE ARGV...

Times `import ebk.cli` and `ebk.cli.main(ARGV)` with the system-wide
monotonic clock, so the parent can measure set-up from its own spawn time,
and writes them with the exit status and peak RSS to the JSON file RECORD.
With TRACE = 1 the layers of the program are traced (see layers.py) and a
marker line on stderr separates set-up imports from imports made by main.
The exit status is the one main returned.
"""
import json
import resource
import sys
import time
import traceback

MAIN_MARKER = "perfbench: main starts"


def main() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t_import = time.monotonic()
    import ebk.cli
    imported = time.monotonic()

    tracer = None
    if traced:
        # imports after the marker are not set-up of the program
        print(MAIN_MARKER, file=sys.stderr, flush=True)
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
    run = tracer.run_root if tracer else (lambda fn, *args: fn(*args))

    main_start = time.monotonic()
    try:
        rc = run(ebk.cli.main, argv)
    except SystemExit as exc:   # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = 1
    main_end = time.monotonic()

    record = {"rc": rc, "imported": imported, "import_s": imported - t_import,
              "main_start": main_start, "main_end": main_end,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        record["layers"] = tracer.summary()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
