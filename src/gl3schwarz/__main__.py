"""`python -m gl3schwarz`: the entry point of the `gl3schwarz` script, `cli.run`."""

from .cli import run

if __name__ == "__main__":
    run()
