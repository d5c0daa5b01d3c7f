"""Latest-unexpired vote store: windows, precedence, equivocation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expiration import LatestVoteStore


def test_latest_picks_most_recent_round():
    store = LatestVoteStore()
    store.record(0, 1, "a")
    store.record(0, 3, "b")
    store.record(0, 2, "c")
    assert store.latest(0, 5) == {0: "b"}
    assert store.latest(0, 2) == {0: "c"}
    assert store.latest(0, 1) == {0: "a"}


def test_window_bounds_are_inclusive():
    store = LatestVoteStore()
    store.record(0, 5, "a")
    assert store.latest(5, 5) == {0: "a"}
    assert store.latest(6, 9) == {}
    assert store.latest(0, 4) == {}


def test_future_tagged_votes_invisible_until_window_reaches_them():
    store = LatestVoteStore()
    store.record(0, 9, "future")
    store.record(0, 3, "now")
    assert store.latest(0, 5) == {0: "now"}
    assert store.latest(0, 9) == {0: "future"}


def test_equivocation_at_latest_round_discards_sender():
    store = LatestVoteStore()
    store.record(0, 2, "old")
    store.record(0, 4, "a")
    store.record(0, 4, "b")
    # Latest round equivocates: no fallback to round 2 (conservative).
    assert store.latest(0, 5) == {}
    # A window that ends before the equivocation still sees the old vote.
    assert store.latest(0, 3) == {0: "old"}


def test_equivocation_then_clean_later_round_recovers():
    store = LatestVoteStore()
    store.record(0, 4, "a")
    store.record(0, 4, "b")
    store.record(0, 5, "clean")
    assert store.latest(0, 5) == {0: "clean"}


def test_duplicate_identical_votes_are_not_equivocation():
    store = LatestVoteStore()
    store.record(0, 4, "a")
    store.record(0, 4, "a")
    assert store.latest(0, 5) == {0: "a"}


def test_none_tip_is_a_valid_vote():
    store = LatestVoteStore()
    store.record(0, 4, None)
    assert store.latest(0, 5) == {0: None}
    store.record(0, 4, "a")  # differs from None: equivocation
    assert store.latest(0, 5) == {}


def test_multiple_senders_independent():
    store = LatestVoteStore()
    store.record(0, 1, "a")
    store.record(1, 2, "b")
    store.record(2, 3, "c")
    assert store.latest(2, 3) == {1: "b", 2: "c"}


def test_empty_window():
    store = LatestVoteStore()
    store.record(0, 1, "a")
    assert store.latest(3, 2) == {}


def test_prune_drops_only_older_rounds():
    store = LatestVoteStore()
    store.record(0, 1, "a")
    store.record(0, 5, "b")
    store.record(1, 2, "c")
    dropped = store.prune(3)
    assert dropped == 2
    assert store.latest(0, 10) == {0: "b"}
    assert store.latest(0, 4) == {}
    assert len(store) == 1


@given(
    votes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # sender
            st.integers(min_value=0, max_value=12),  # round
            st.sampled_from(["a", "b", None]),  # tip
        ),
        max_size=40,
    ),
    lo=st.integers(min_value=0, max_value=12),
    hi=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200)
def test_latest_matches_reference_model(votes, lo, hi):
    """The store agrees with a brute-force reference implementation."""
    store = LatestVoteStore()
    for sender, round_number, tip in votes:
        store.record(sender, round_number, tip)

    expected: dict[int, object] = {}
    for sender in {v[0] for v in votes}:
        in_window = [(r, t) for s, r, t in votes if s == sender and lo <= r <= hi]
        if not in_window:
            continue
        best = max(r for r, _ in in_window)
        tips = {t for r, t in in_window if r == best}
        if len(tips) == 1:
            expected[sender] = tips.pop()
    assert store.latest(lo, hi) == expected


@given(
    votes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=9),
            st.sampled_from(["a", "b"]),
        ),
        max_size=30,
    ),
    cutoff=st.integers(min_value=0, max_value=9),
)
@settings(max_examples=100)
def test_prune_never_affects_windows_at_or_above_cutoff(votes, cutoff):
    store = LatestVoteStore()
    mirror = LatestVoteStore()
    for sender, round_number, tip in votes:
        store.record(sender, round_number, tip)
        mirror.record(sender, round_number, tip)
    store.prune(cutoff)
    assert store.latest(cutoff, 9) == mirror.latest(cutoff, 9)
