"""The results digest's own cases, each run once through the CLI."""

import importlib.util
import warnings
from pathlib import Path


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "results_digest.py"


def _digest():
    spec = importlib.util.spec_from_file_location("results_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_keeps_the_exit_contract_without_warnings():
    digest = _digest()
    labels = []
    for label, argv in digest.cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = digest.results_block(argv)
        assert code in (0, 1, 2), label
        labels.append(label)
    assert len(set(labels)) == len(labels)  # one line per label
