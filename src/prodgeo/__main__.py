"""``python -m prodgeo`` and the ``prodgeo`` script: the command line."""

import gc


def main() -> None:
    """The ``prodgeo`` command.  The collector is off from before the
    imports, as one request makes few cycles, and the heap is frozen before
    exit, so that the collections at interpreter shutdown skip it."""
    gc.disable()
    from . import cli
    status = cli.main()
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    main()
