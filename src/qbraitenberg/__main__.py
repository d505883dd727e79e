import os
import sys

from .cli import main


def run() -> None:
    """Run the CLI; a reader that closes stdout early ends it with exit code 1 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, inside the try, not at interpreter exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush succeeds
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
