import json
import random
import re

import pytest

import workloads


def _generate(tmp_path, name, seed, sub="a"):
    return workloads.generate(name, seed, workloads.WORKLOADS[name], tmp_path / sub)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_dumps(tmp_path, name):
    first = _generate(tmp_path, name, 5, "a")
    second = _generate(tmp_path, name, 5, "b")
    other = _generate(tmp_path, name, 6, "c")
    assert first.commit_dump.read_bytes() == second.commit_dump.read_bytes()
    assert first.cve_dump.read_bytes() == second.cve_dump.read_bytes()
    assert (first.commit_dump_sha256, first.cve_dump_sha256) == (
        second.commit_dump_sha256,
        second.cve_dump_sha256,
    )
    assert first.commit_dump_sha256 != other.commit_dump_sha256
    assert first.summary()["cve_dump_sha256"] == workloads.sha256_file(first.cve_dump)


def _planted_items_per_commit(generated) -> dict[str, int]:
    """Count, from the dumps alone, the patches and decoys each commit carries."""
    cves = [json.loads(line) for line in generated.cve_dump.read_text().splitlines()]
    commits = [json.loads(line) for line in generated.commit_dump.read_text().splitlines()]
    patch_paths = set()
    for cve in cves:
        ident = re.search(r"overflow in (\w+) before", cve["description"]).group(1)
        patch_paths.add(f"src/net/{ident.lower()}.java")
    planted = {}
    for commit in commits:
        items = sum(f"diff --git a/{p} " in commit["diff"] for p in patch_paths)
        items += "denial service" in commit["message"]
        planted[commit["commit_id"]] = items
    return planted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", range(4))
def test_decoys_never_share_a_commit_with_a_patch_or_decoy(tmp_path, name, seed):
    generated = _generate(tmp_path, name, seed)
    spec = generated.spec
    for slots in generated.placements.values():
        taken = slots["patches"] + slots["decoys"]
        assert len(taken) == len(set(taken))
    planted = _planted_items_per_commit(generated)
    assert max(planted.values()) == 1
    cves = spec.repos * spec.cves_per_repo
    expected = cves * (1 + spec.decoys_per_cve) + workloads.HARD_DECOYS
    assert sum(planted.values()) == expected


def test_hard_cve_is_in_repo_zero(tmp_path):
    for name in workloads.WORKLOADS:
        generated = _generate(tmp_path, name, 1, name)
        cves = [json.loads(line) for line in generated.cve_dump.read_text().splitlines()]
        hard = [c for c in cves if c["cve_id"] == workloads.HARD_CVE_ID]
        assert len(hard) == 1 and hard[0]["repo_id"] == "bench/repo0"


def test_patch_positions_keep_their_gap():
    rng = random.Random(3)
    for _ in range(200):
        positions = workloads.patch_positions(rng, 120, 10, 6)
        assert positions == sorted(positions)
        assert positions[0] >= workloads.FIRST_PATCH
        assert positions[-1] < 120 - workloads.TAIL
        assert all(b - a >= 6 for a, b in zip(positions, positions[1:]))


def test_patch_positions_reject_a_crowded_history():
    with pytest.raises(ValueError):
        workloads.patch_positions(random.Random(0), 60, 10, 6)


def test_check_placements_reports_a_collision():
    with pytest.raises(ValueError):
        workloads.check_placements({"r": {"patches": [40, 50], "decoys": [39, 50]}})
