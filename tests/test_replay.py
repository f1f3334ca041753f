import numpy as np
import pytest

from cellpower.replay import ReplayBuffer

STATE_SIZE = 3
NUM_CELLS = 2


def push(buf, i):
    """Push transition number i, with i written into every field."""
    buf.push(np.full(STATE_SIZE, float(i)), np.full(NUM_CELLS, i), float(i),
             np.full(STATE_SIZE, i + 0.5), i % 2 == 1)


def push_numbers(rows):
    """The push number of each row of (states, actions, rewards,
    next_states, terminals), after checking that all five fields of every
    row came from the same push."""
    states, actions, rewards, next_states, terminals = rows
    ids = rewards.astype(int)
    assert np.array_equal(rewards, ids)
    assert np.array_equal(states, np.repeat(ids[:, None], STATE_SIZE, axis=1))
    assert np.array_equal(actions, np.repeat(ids[:, None], NUM_CELLS, axis=1))
    assert np.array_equal(next_states,
                          np.repeat(ids[:, None] + 0.5, STATE_SIZE, axis=1))
    assert np.array_equal(terminals, ids % 2 == 1)
    return [int(i) for i in ids]


def sampled(buf, batch):
    """A sample's (states, actions, rows) with the rows' rewards, next
    states and terminal flags read from the buffer."""
    states, actions, rows = batch
    return (states, actions, buf.reward[rows], buf.next_state[rows],
            buf.terminal[rows])


def stored(buf):
    """Push numbers of the rows the buffer holds, in row order."""
    n = len(buf)
    return push_numbers((buf.state[:n], buf.action[:n], buf.reward[:n],
                         buf.next_state[:n], buf.terminal[:n]))


def test_push_to_empty():
    buf = ReplayBuffer(4)
    push(buf, 0)
    assert len(buf) == 1
    assert stored(buf) == [0]


def test_fifo_eviction():
    buf = ReplayBuffer(2)
    for i in range(3):
        push(buf, i)
    assert sorted(stored(buf)) == [1, 2]


def test_size_saturates_at_capacity():
    buf = ReplayBuffer(5)
    for i in range(5):
        push(buf, i)
    assert len(buf) == 5
    push(buf, 99)
    assert len(buf) == 5


def test_model_equivalence_against_naive_list(rng):
    """Contents always equal the last min(N, pushes) items."""
    buf = ReplayBuffer(7)
    mirror = []
    for i in range(500):
        push(buf, i)
        mirror.append(i)
        assert sorted(stored(buf)) == mirror[-7:]


def test_sample_returns_only_stored_items(rng):
    buf = ReplayBuffer(10)
    for i in range(25):
        push(buf, i)
    held = set(stored(buf))
    for _ in range(50):
        assert set(push_numbers(sampled(buf, buf.sample(4, rng)))) <= held


def test_sample_returns_row_aligned_arrays(rng):
    buf = ReplayBuffer(10)
    for i in range(10):
        push(buf, i)
    states, actions, rows = buf.sample(6, rng)
    _, _, rewards, next_states, terminals = sampled(buf, (states, actions, rows))
    assert states.shape == next_states.shape == (6, STATE_SIZE)
    assert actions.shape == (6, NUM_CELLS)
    assert rewards.shape == terminals.shape == rows.shape == (6,)
    assert states.dtype == next_states.dtype == rewards.dtype == np.float64
    assert actions.dtype == rows.dtype == int
    assert terminals.dtype == bool


def test_sample_single_element(rng):
    buf = ReplayBuffer(3)
    push(buf, 0)
    assert push_numbers(sampled(buf, buf.sample(1, rng))) == [0]


def test_underfull_buffer_signals_not_ready(rng):
    buf = ReplayBuffer(100)
    push(buf, 1)
    with pytest.raises(ValueError):
        buf.sample(2, rng)


def test_sampling_is_uniform(rng):
    buf = ReplayBuffer(10)
    for i in range(10):
        push(buf, i)
    draws = 100_000
    counts = np.zeros(10)
    for _ in range(draws // 10):
        np.add.at(counts, buf.sample(10, rng)[2], 1)     # row i holds push i
    freq = counts / draws
    assert np.all(np.abs(freq - 0.1) < 0.01)


def test_bad_capacity_rejected():
    with pytest.raises(ValueError):
        ReplayBuffer(0)
