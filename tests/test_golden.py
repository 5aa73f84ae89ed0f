"""Golden outputs: byte-exact trace, event and record files per policy.

Refactors of the engine must not move a single byte of what a run writes.
Each case runs one policy at one seed with recording on and pins the
sha256 of ``trace.jsonl``, ``events.jsonl`` and the exported training
records (no_tracing records no observables, so it exports none).
``configs/default.yaml`` runs pct with the noisy oracle, fitted cut points
and 3000 agents; its cases pin the estimates that ``pctsim run`` writes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pctsim.core import SimConfig, load_config, write_run
from pctsim.datagen import export_training_records

GOLDEN = {
    ("no_tracing", 0): {
        "trace": "0a991d795053e7e692b70027c673b719056c533b4824399bc1b13d8ce85a3a82",
        "events": "2541b19c75d62ef3ea72bbaa2926426ca138fe36d6c9fcfecb8d8f2a366101b7",
    },
    ("no_tracing", 3): {
        "trace": "4936e64765aec5b6ed1ab74aa15dc6377164e328e250405740ed1862c0e9d17d",
        "events": "816b5f6b1b6ebc4f930e4b3c5494962d61a87aaddd42bc418db028caa676c86d",
    },
    ("bct", 0): {
        "trace": "3968814d97a43955b6f646c790a556977a9059e680e50c547e246befb957c688",
        "events": "c7bb4b7abc6ce6631e9caa255d8e3974796b1128f675eec81f64293e50b4fb5e",
        "records": "14bc1496ac3b19b470a67d1df69de61e9be061917319fcfb2bffb4b6721ee6ba",
    },
    ("bct", 3): {
        "trace": "7c645a57eef2d5eca4e10d5ceba2835a641bb2c1a6bed698bb2e97c555ec66c7",
        "events": "ada85df314ee4d5de4f095447778908a1dabb254852eaf5e05a5bbb8d5251a0d",
        "records": "0d6f619388f0fdffbfdedbd00751b9d1ec0cfdf2804d25f2e65c63dcd9c7cc58",
    },
    ("heuristic", 0): {
        "trace": "e417f83e9e4099b70dc15e317c22d3951d9d31b19de324cbf35daf706bcb4849",
        "events": "8070ec889dcafb305c4e429a230361d67b5362e60572c5d639ddef384df6b927",
        "records": "eb46a9746461d380988d42e8ba754adffa5ae1ecee95a1e6692e48b25e24c4e7",
    },
    ("heuristic", 3): {
        "trace": "5c5faaa10adca70b8c0fd8ac6d5e942067f4e92c5e194465fb0e611df7f6c2b3",
        "events": "c9984996db67e717f11c276b0dc5190452a1d49f9e0d89017c78a60d0d0eaf01",
        "records": "24d1d7b5effd08d5d552f0f6047301c424f042326ac541d73a25e74a8ce42789",
    },
    ("pct", 0): {
        "trace": "41f0b93ac4ea90ba3212306d9f373be4767f041db650fe72f217c30e5d0efdfa",
        "events": "3909c2c7f10bfc0ac0d2505219af9dc323086b91886c9ca05c7357992cc25507",
        "records": "8919c1f959fc75a9f8d51b28e1a99d6b6b39a0169271d6821d6e5f2e5a338560",
    },
    ("pct", 3): {
        "trace": "9b4817a06ddac84c452bf22c5fecda488340fad26d5b76b0ca45f01fa876035c",
        "events": "62272519cc3e072d98b4f7c113ce40c3f14c3a3821a06454469fbadbc5a5de7a",
        "records": "0d035894ac7b05df893726cc52ae212969100599022901f00a739f59fa054854",
    },
}

# pct replaying an external predictions file that lacks some (agent, day)
# rows: a sender whose prediction is missing falls back to level 1, and its
# estimate is the previous day's moved one day older, which is what its
# partners already hold, so it sends nothing.
GOLDEN_EXTERNAL = {
    "trace": "f0c0ae23e6f86730e01bc7f20543e114f4d83a45ba60e65d032f1db4e2268497",
    "events": "d0bea382e4aba4e2e26c9154cc7d79214ca083b9cf94e8d77125392f928a3e1a",
    "records": "73b1ee8245a930d1d0973e2da6691571c7aa78d9c8f184d3671f665f53bf7886",
}

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
# configs/default.yaml as shipped, at two seeds
GOLDEN_DEFAULT = {
    0: {
        "trace": "70aefd579b62a7a308bceb95ffbc6140544fb16cc4951356e53ae1ecd57b8f94",
        "events": "9d4c6b541a6f468fd9da54a001d3afe0b4fb7a0faf644c334df1e99edf8a9665",
        "records": "877983a723c7c474e485bea7f1dcc00e273a408355b279240252498dd349bb73",
    },
    3: {
        "trace": "980cc9447a62fcfbbacf3c1f29bb6a9e5b674398cec112bcd05370b0cc77a454",
        "events": "7e414cf806f05ffbb71be232a72511392de0e22a8b6ca7f257a3862b60d2f06c",
        "records": "0f56243dafa662195c9d677ce597cab720aaa621fcb940e4a0c61f8e289093bf",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(tmp_path, **kw):
    return _written(tmp_path, SimConfig(
        population_size=600, num_days=25, initial_exposed_fraction=0.02,
        global_mobility_scale=3.75, record_observables=True, record_estimates=True, **kw))


def _written(tmp_path, cfg):
    """The digests of the files that a run of ``cfg`` writes."""
    trace = write_run(cfg, tmp_path / "trace.jsonl", tmp_path / "events.jsonl")
    out = {"trace": _sha256(tmp_path / "trace.jsonl"),
           "events": _sha256(tmp_path / "events.jsonl")}
    if trace.enc_windows is not None:
        export_training_records(trace, tmp_path / "records.jsonl")
        out["records"] = _sha256(tmp_path / "records.jsonl")
    return out


@pytest.mark.parametrize("policy,seed", sorted(GOLDEN))
def test_outputs_are_byte_identical(policy, seed, tmp_path):
    assert _digests(tmp_path, policy=policy, predictor="noisy_oracle",
                    rng_seed=seed) == GOLDEN[(policy, seed)]


def test_external_predictor_with_misses_is_byte_identical(tmp_path):
    # the trace names the predictions file by its sha256, so its path does not matter
    with open(tmp_path / "preds.jsonl", "w") as fh:
        for day in range(25):
            for agent in range(600):
                if (agent + 2 * day) % 5 == 0:
                    continue  # missing: a failed prediction
                y_hat = [((agent * 31 + day * 17 + k * 7) % 97) / 100 for k in range(15)]
                fh.write(json.dumps({"agent_id": agent, "day": day, "y_hat": y_hat}) + "\n")
    assert _digests(tmp_path, policy="pct", predictor="external",
                    external_predictions=str(tmp_path / "preds.jsonl"),
                    rng_seed=0) == GOLDEN_EXTERNAL


@pytest.mark.parametrize("seed", sorted(GOLDEN_DEFAULT))
def test_default_config_is_byte_identical(seed, tmp_path):
    cfg = load_config(DEFAULT_CONFIG).replace(rng_seed=seed)
    assert (cfg.policy, cfg.predictor) == ("pct", "noisy_oracle")
    assert _written(tmp_path, cfg) == GOLDEN_DEFAULT[seed]
