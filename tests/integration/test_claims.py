"""The paper's claims on the incasts hold, and EXPERIMENTS.md shows them.

Every claim in :mod:`repro.check.claims` whose configs are all incasts
(closed-form, structural and custom-CC claims included) is evaluated here
over one campaign, which shares its runs with the rest of the suite through
the runner cache.  The datacenter claims run under ``repro-experiments
check claims`` in CI and nightly.
"""

from pathlib import Path

import pytest

from repro.check import claims
from repro.experiments.parallel import run_campaign

TIER1 = [claim for claim in claims.CLAIMS if claims.incast_only(claim)]
EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def rows():
    outcome = run_campaign(claims.campaign(TIER1))
    return {row.claim: row for row in claims.evaluate(TIER1, outcome)}


@pytest.mark.parametrize("claim_id", [claim.id for claim in TIER1])
def test_claim_holds(claim_id, rows):
    assert rows[claim_id].ok, rows[claim_id].render()


def test_experiments_md_carries_the_rendered_scoreboard(rows):
    text = EXPERIMENTS_MD.read_text()
    block = text[text.index(claims.BEGIN) : text.index(claims.END)].splitlines()
    for row in rows.values():
        assert row.render() in block
    listed = [line.split(" | ")[0][2:] for line in block[3:] if line.startswith("| ")]
    assert listed == [claim.id for claim in claims.CLAIMS]
    assert len(set(listed)) == len(listed)
