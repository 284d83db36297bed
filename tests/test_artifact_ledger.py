"""Every artifact of the presets and benchmark workloads matches the committed ledger."""

import json

import pytest

from artifact_ledger import LEDGER, collect, platform_key


def test_no_artifact_digest_moved(tmp_path):
    ledger = json.loads(LEDGER.read_text(encoding="ascii"))
    recorded = {key: ledger[key] for key in platform_key()}
    if recorded != platform_key():
        pytest.skip(f"ledger written on {recorded}, this platform is {platform_key()}: "
                    "np.abs and complex products may differ in the last bit")
    digests = collect(tmp_path)
    moved = sorted(name for name in ledger["digests"].keys() | digests.keys()
                   if ledger["digests"].get(name) != digests.get(name))
    assert not moved, f"{len(moved)} artifact digests moved: {', '.join(moved)}"
