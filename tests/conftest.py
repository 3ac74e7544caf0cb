import csv
import io
import os
import warnings

import pytest

from rmapath import CAMPAIGN_CSV_HEADER, CampaignFormatError, LinkBudget, read_campaign_csv


@pytest.fixture(autouse=True)
def clean_rma_environment(monkeypatch):
    # RMA_* variables override CLI flags; keep ambient ones out of the suite
    for key in [k for k in os.environ if k.startswith("RMA_")]:
        monkeypatch.delenv(key)


def _campaign_field(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value  # the writer turns None into an empty field and a float into its repr


@pytest.fixture(scope="session")
def campaign_text():
    """The campaign CSV text, header first, of rows given in header order."""
    def text(rows) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CAMPAIGN_CSV_HEADER)
        writer.writerows([map(_campaign_field, row) for row in rows])
        return buf.getvalue()
    return text


@pytest.fixture(scope="session")
def campaign_outcome(tmp_path_factory):
    """What campaign CSV text reads as under a 150 dB ceiling (so that rows
    given as a received power warn): the column bytes per environment, the
    summary and the warning texts, or the error text and the warning texts."""
    path = tmp_path_factory.mktemp("campaign") / "campaign.csv"
    budget = LinkBudget(14.7, 27.0, 27.0, 150.0)

    def outcome(text: str):
        path.write_text(text, newline="")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                datasets, summary = read_campaign_csv(path, budget)
            except CampaignFormatError as exc:
                return str(exc), [str(w.message) for w in caught]
        columns = {env: [c.tobytes() for c in (ds.fc_ghz, ds.d2d_m, ds.d3d_m, ds.pl_db)]
                   for env, ds in datasets.items()}
        return columns, summary, [str(w.message) for w in caught]
    return outcome
