"""Traced stand-in for ``python -m kcycle``, started by bench/run.py.

    launch.py SPANS PASS JOB -- ARGV...

Installs the tracing wrappers, runs ``kcycle.cli.main(ARGV)`` as one job
of traced pass PASS, writes the spans to SPANS and exits with the CLI's
exit code.
"""

import sys

import tracing


def main():
    spans_path, pass_no, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: launch.py SPANS PASS JOB -- ARGV...")
    import kcycle.cli

    tracer = tracing.Tracer()
    tracer.job = (int(pass_no), job)
    tracer.install(tracing.CLI_TARGETS)
    try:
        code = tracer.span("cli.main", kcycle.cli.main)(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
