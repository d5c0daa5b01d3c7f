"""E2 — the §1/§3.1 attack: one asynchronous decision round breaks MMR.

The adversary (20% of processes) equivocates votes on two conflicting
blocks during an asynchronous decision round and shows each half of the
network only one side.  Reported per protocol: safety (Definition 2),
asynchrony resilience (Definition 5), forks observed, and how many
honest processes were fooled.  The paper's claim: the original protocol
loses safety with *any* number of Byzantine processes, while the
η-expiration protocol with η > π is immune (Theorem 2).
"""

from repro.analysis import check_asynchrony_resilience, check_safety, format_table
from repro.harness import run_tob
from repro.workloads import split_vote_attack_scenario

TARGET = 10
N = 20


def run_one(protocol: str, eta: int, pi: int) -> dict:
    config = split_vote_attack_scenario(protocol, eta=eta, pi=pi, n=N, target_round=TARGET)
    trace = run_tob(config)
    safety = check_safety(trace)
    resilience = check_asynchrony_resilience(trace, ra=config.meta["ra"], pi=pi)
    fooled = {
        d.pid
        for d in trace.decisions
        if d.round == TARGET + 1 and any(trace.tree.conflict(d.tip, o.tip) for o in trace.decisions if o.pid != d.pid and o.round == TARGET + 1)
    }
    return {
        "protocol": f"{protocol} (η={eta})",
        "pi": pi,
        "safe": safety.ok,
        "resilient": resilience.ok,
        "forks": len({(c.first.tip, c.second.tip) for c in safety.conflicts}),
        "fooled": len(fooled),
    }


def test_async_attack(record):
    def experiment():
        rows = []
        for protocol, eta, pi in (
            ("mmr", 0, 1),
            ("mmr", 0, 2),
            ("resilient", 2, 1),
            ("resilient", 3, 2),
            ("resilient", 4, 3),
        ):
            rows.append(run_one(protocol, eta, pi))
        return rows

    rows = experiment()
    record(
        format_table(
            ["protocol", "π", "safe", "Def.5 resilient", "forks", "honest fooled"],
            [[r["protocol"], r["pi"], r["safe"], r["resilient"], r["forks"], r["fooled"]] for r in rows],
            title=f"E2: split-vote attack in an asynchronous decision round (n={N}, 4 Byzantine)",
        )
    )

    mmr_rows = [r for r in rows if r["protocol"].startswith("mmr")]
    res_rows = [r for r in rows if r["protocol"].startswith("resilient")]
    assert all(not r["safe"] for r in mmr_rows), "MMR must fork under the attack"
    assert all(r["fooled"] >= N - N // 5 - 2 for r in mmr_rows), "attack must fool ~everyone"
    assert all(r["safe"] and r["resilient"] for r in res_rows), "η > π must hold the line"
    assert all(r["forks"] == 0 for r in res_rows)
