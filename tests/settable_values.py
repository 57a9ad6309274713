"""Count the values a user or caller can set, by introspection.

    PYTHONPATH=src python tests/settable_values.py

Counts the fields of `MlmcRunConfig` (and of `RefinementConfig` in a
checkout that still has it), the keys a config file accepts and the flags of
`mlmc run` and `mlmc compare` (`--help` aside), and prints the total with its
parts.  A simplification should lower
the total.  Like `artifact_digests.py`, it imports `adaptive_mlmc` from the
path, so it counts another checkout too.  Pytest does not collect this file.
"""
import argparse
from dataclasses import fields

from adaptive_mlmc import cli, refinement
from adaptive_mlmc.driver import MlmcRunConfig


def flags(parser: argparse.ArgumentParser) -> int:
    return sum(1 for action in parser._actions
               if action.option_strings and not isinstance(action, argparse._HelpAction))


def counts() -> dict:
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    # RefinementConfig and [refinement] in a checkout that still has them
    refinement_config = getattr(refinement, "RefinementConfig", None)
    return {
        "MlmcRunConfig": len(fields(MlmcRunConfig)),
        **({"RefinementConfig": len(fields(refinement_config))}
           if refinement_config else {}),
        "config keys": len(cli._RUN_KEYS) + len(getattr(cli, "_REFINEMENT_KEYS", {})),
        "run flags": flags(commands["run"]),
        "compare flags": flags(commands["compare"]),
    }


if __name__ == "__main__":
    parts = counts()
    print(f"settable values: {sum(parts.values())} ("
          + ", ".join(f"{name} {n}" for name, n in parts.items()) + ")")
