import csv
import io
import os

import pytest

from rmapath import CAMPAIGN_CSV_HEADER


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
