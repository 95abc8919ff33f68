"""``python -m prodgeo`` and the ``prodgeo`` script: the command line."""

import gc


def main() -> None:
    gc.disable()  # from before the imports: one request makes few cycles
    from .cli import entrypoint
    entrypoint()


if __name__ == "__main__":
    main()
