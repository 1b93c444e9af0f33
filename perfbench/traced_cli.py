"""Run one `optamp` command with every traced span wrapped, then save the spans.

Usage: python3 perfbench/traced_cli.py SPANS.npz OPTAMP-ARGUMENT...

The traced run of a CLI workload starts this in place of `python -m optamp`,
with the checkout's ``src`` on PYTHONPATH.  The spans are saved even when
the command fails, and the command's exit code is passed on.
"""

import sys

import optamp.cli
import tracing


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    recorder.install()
    try:
        return optamp.cli.main(argv)
    finally:
        recorder.save(path)


if __name__ == "__main__":
    sys.exit(main())
