import json

import pytest

from thermoqubit import cli


@pytest.fixture(scope="session")
def verify_report(tmp_path_factory):
    """Exit code and parsed JSON report of one `verify` run through the CLI;
    the CLI and acceptance tests assert on this single run."""
    out = tmp_path_factory.mktemp("verify") / "report.json"
    rc = cli.main(["verify", "--out", str(out)])
    return rc, json.loads(out.read_text())
