"""EXPERIMENTS.md names every claim the replication gate scores."""

from pathlib import Path

from repro.verify.replication import CLAIMS

ROOT = Path(__file__).resolve().parent.parent


def test_every_claim_is_named_in_experiments_md():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    missing = [c.name for c in CLAIMS if f"`{c.name}`" not in text]
    assert not missing, f"EXPERIMENTS.md does not name {missing}"
