import numpy as np
import pytest

from cellpower.env import PowerControlEnv
from cellpower.harness import scenario_preset
from cellpower.replay import ReplayBuffer

from conftest import tiny_config

# two CQI columns and a cell-edge column, as in encode_state
STATE_SCALE = np.array([15.0, 15.0, 1.0])
STATE_SIZE = len(STATE_SCALE)
NUM_CELLS = 2
# push i stores action i, so the pushes of these tests need a wide action type
NUM_ACTIONS = 2 ** 16


def codes(ids):
    """The uint8 states whose codes are the base-16 digits of push numbers
    `ids` (modulo 16^STATE_SIZE), least significant first."""
    ids = np.asarray(ids)
    return (ids[..., None] // 16 ** np.arange(STATE_SIZE) % 16).astype(np.uint8)


def coded(ids):
    """The float64 states that codes(ids) decode to."""
    return codes(ids) / STATE_SCALE


def push(buf, i):
    """Push transition number i: i is written into its action and reward,
    its state codes i and its next state i + 1, so consecutive pushes
    chain, and odd pushes are terminal."""
    buf.push(codes(i), np.full(NUM_CELLS, i), float(i), codes(i + 1), i % 2 == 1)


def push_numbers(rows):
    """The push number of each row of (states, actions, rewards,
    next_states, terminals), after checking that all five fields of every
    row came from the same push."""
    states, actions, rewards, next_states, terminals = rows
    ids = rewards.astype(int)
    assert np.array_equal(rewards, ids)
    assert np.array_equal(states, coded(ids))
    assert np.array_equal(actions, np.repeat(ids[:, None], NUM_CELLS, axis=1))
    assert np.array_equal(next_states, coded(ids + 1))
    assert np.array_equal(terminals, ids % 2 == 1)
    return [int(i) for i in ids]


def sampled(buf, batch):
    """A sample's (states, actions, rows) with the rows' rewards, next
    states and terminal flags read from the buffer."""
    states, actions, rows = batch
    return (states, actions, buf.reward[rows], buf.states(rows, offset=1),
            buf.terminal[rows])


def stored(buf):
    """Push numbers of the rows the buffer holds, in row order."""
    rows = np.arange(len(buf))
    return push_numbers((buf.states(rows, offset=0), buf.action[rows], buf.reward[rows],
                         buf.states(rows, offset=1), buf.terminal[rows]))


def test_push_to_empty():
    buf = ReplayBuffer(4, STATE_SCALE, NUM_ACTIONS)
    push(buf, 0)
    assert len(buf) == 1
    assert stored(buf) == [0]


def test_fifo_eviction():
    buf = ReplayBuffer(2, STATE_SCALE, NUM_ACTIONS)
    for i in range(3):
        push(buf, i)
    assert sorted(stored(buf)) == [1, 2]


def test_size_saturates_at_capacity():
    buf = ReplayBuffer(5, STATE_SCALE, NUM_ACTIONS)
    for i in range(5):
        push(buf, i)
    assert len(buf) == 5
    push(buf, 5)
    assert len(buf) == 5


def test_model_equivalence_against_naive_list(rng):
    """Contents always equal the last min(N, pushes) items."""
    buf = ReplayBuffer(7, STATE_SCALE, NUM_ACTIONS)
    mirror = []
    for i in range(500):
        push(buf, i)
        mirror.append(i)
        assert sorted(stored(buf)) == mirror[-7:]


def test_sample_returns_only_stored_items(rng):
    buf = ReplayBuffer(10, STATE_SCALE, NUM_ACTIONS)
    for i in range(25):
        push(buf, i)
    held = set(stored(buf))
    for _ in range(50):
        assert set(push_numbers(sampled(buf, buf.sample(4, rng)))) <= held


def test_sample_returns_row_aligned_arrays(rng):
    buf = ReplayBuffer(10, STATE_SCALE, NUM_ACTIONS)
    for i in range(10):
        push(buf, i)
    states, actions, rows = buf.sample(6, rng)
    _, _, rewards, next_states, terminals = sampled(buf, (states, actions, rows))
    assert states.shape == next_states.shape == (6, STATE_SIZE)
    assert actions.shape == (6, NUM_CELLS)
    assert rewards.shape == terminals.shape == rows.shape == (6,)
    assert states.dtype == next_states.dtype == rewards.dtype == np.float64
    assert actions.dtype == np.uint16 and rows.dtype == int
    assert terminals.dtype == bool


def test_sample_single_element(rng):
    buf = ReplayBuffer(3, STATE_SCALE, NUM_ACTIONS)
    push(buf, 0)
    assert push_numbers(sampled(buf, buf.sample(1, rng))) == [0]


def test_underfull_buffer_signals_not_ready(rng):
    buf = ReplayBuffer(100, STATE_SCALE, NUM_ACTIONS)
    push(buf, 1)
    with pytest.raises(ValueError):
        buf.sample(2, rng)


def test_sampling_is_uniform(rng):
    buf = ReplayBuffer(10, STATE_SCALE, NUM_ACTIONS)
    for i in range(10):
        push(buf, i)
    draws = 100_000
    counts = np.zeros(10)
    for _ in range(draws // 10):
        np.add.at(counts, buf.sample(10, rng)[2], 1)     # row i holds push i
    freq = counts / draws
    assert np.all(np.abs(freq - 0.1) < 0.01)


@pytest.mark.parametrize("num_actions, dtype", [(9, np.uint8), (72, np.uint8),
                                                (256, np.uint8), (257, np.uint16)])
def test_actions_take_the_smallest_unsigned_type(num_actions, dtype, rng):
    buf = ReplayBuffer(8, STATE_SCALE, num_actions)
    pushed = rng.integers(0, num_actions, size=(8, NUM_CELLS))
    pushed[0] = num_actions - 1, 0
    for i, action in enumerate(pushed):
        buf.push(codes(i), action, float(i), codes(i + 1), False)
    assert buf.action.dtype == dtype
    for _ in range(5):
        _, actions, rows = buf.sample(8, rng)
        assert np.array_equal(actions, pushed[rows])     # row i holds push i


def test_bad_capacity_rejected():
    with pytest.raises(ValueError):
        ReplayBuffer(0, STATE_SCALE, NUM_ACTIONS)


def assert_rejected(field, bad):
    """Push 2 with `bad` as its `field` raises ValueError and leaves the
    ring's count and every array as pushes 0 and 1 left them."""
    buf = ReplayBuffer(4, STATE_SCALE, NUM_ACTIONS)
    push(buf, 0)
    push(buf, 1)            # terminal, so push 2 may start anywhere
    before = {name: a.copy() for name, a in vars(buf).items() if isinstance(a, np.ndarray)}
    fields = {"state": codes(2), "next_state": codes(3), field: bad}
    with pytest.raises(ValueError, match=f"^{field} is .*, not a uint8 row of 3 codes"):
        buf.push(fields["state"], np.zeros(NUM_CELLS, dtype=int), 2.0,
                 fields["next_state"], False)
    assert buf.pushes == 2
    for name, a in before.items():
        assert np.array_equal(getattr(buf, name), a), name
    assert stored(buf) == [0, 1]
    push(buf, 2)
    assert stored(buf) == [0, 1, 2]


@pytest.mark.parametrize("field", ["state", "next_state"])
@pytest.mark.parametrize("column, value", [
    (0, 0.5),            # between two CQI codes
    (1, -1 / 15),        # a negative code
    (2, 0.5),            # between the edge bit's codes
    (2, 256.0),          # past the largest uint8 code
    (0, np.nextafter(1 / 15, 1)),   # one ulp above a CQI code
])
def test_off_grid_state_rejected(field, column, value):
    # a float64 state off the code grid is not a row of codes
    bad = coded(2 if field == "state" else 3)
    bad[column] = value
    assert_rejected(field, bad)


@pytest.mark.parametrize("field", ["state", "next_state"])
@pytest.mark.parametrize("bad", [
    coded,                                    # the float64 values the codes decode to
    lambda i: codes(i).astype(np.float64),    # the codes as float64
    lambda i: codes(i).astype(np.int64),      # the codes as int64
    lambda i: codes(i)[:-1],                  # a code short
    lambda i: np.append(codes(i), 0),         # a code long
    lambda i: codes([i, i]),                  # two rows
], ids=["decoded", "float64", "int64", "short", "long", "two-rows"])
def test_state_that_is_not_a_uint8_row_rejected(field, bad):
    assert_rejected(field, bad(2 if field == "state" else 3))


def test_state_after_non_terminal_row_must_be_its_next_state():
    buf = ReplayBuffer(4, STATE_SCALE, NUM_ACTIONS)
    push(buf, 0)            # not terminal: push 1 must start at codes(1)
    with pytest.raises(ValueError, match="not the next state of push 0"):
        buf.push(codes(5), np.zeros(NUM_CELLS, dtype=int), 1.0, codes(6), True)
    assert stored(buf) == [0]
    push(buf, 1)            # terminal: the next push may start anywhere
    buf.push(codes(7), np.full(NUM_CELLS, 2), 2.0, codes(8), False)
    # push 2 overwrote push 1's next state, which no target reads
    assert np.array_equal(buf.states(1, offset=1), coded(7))
    assert np.array_equal(buf.states(2, offset=0), coded(7))


@pytest.mark.parametrize("config", [tiny_config(num_cells=3),   # the desk network
                                    scenario_preset("scenario1")],
                         ids=["desk", "scenario1"])
def test_env_states_round_trip_bit_for_bit(config, rng):
    # real episodes through a ring that wraps several times: every held
    # row gives back its state, and its next state unless it is terminal
    # and a later push started a new episode on its slot
    env = PowerControlEnv(config, max_episode_steps=4)
    capacity = 9
    buf = ReplayBuffer(capacity, env.state_scale, len(env.actions))
    pushed = []                 # decoded state and next state, and terminal, of each push
    while len(pushed) < 5 * capacity:
        ctx, state = env.reset(rng)
        while not ctx.terminal:
            action = rng.integers(0, len(env.actions), size=config.num_cells)
            next_state, reward, terminal, _ = env.step(ctx, action)
            buf.push(state, action, reward, next_state, terminal)
            pushed.append((state / env.state_scale, next_state / env.state_scale, terminal))
            state = next_state
            rows = np.arange(len(buf))
            held = buf.push_no[rows]
            assert sorted(held) == list(range(len(pushed)))[-capacity:]
            assert np.array_equal(buf.states(rows, offset=0),
                                  np.array([pushed[p][0] for p in held]))
            nexts = buf.states(rows, offset=1)
            for row, p in zip(rows, held):
                if p + 1 < len(pushed):
                    # a terminal row's slot is the next push's first state
                    assert np.array_equal(nexts[row], pushed[p + 1][0])
                if not pushed[p][2] or p + 1 == len(pushed):
                    assert np.array_equal(nexts[row], pushed[p][1])
    assert sum(t for _, _, t in pushed) >= 5
    for _ in range(5):
        states, _, rows = buf.sample(capacity, rng)
        assert np.array_equal(states, np.array([pushed[p][0] for p in buf.push_no[rows]]))


def test_states_take_one_byte_per_entry_and_slot():
    # a ring of capacity C at state width W holds its states in (C + 1) * W
    # bytes: whatever else it stores must not grow with W
    capacity = 50

    def held_bytes(width):
        buf = ReplayBuffer(capacity, np.full(width, 15.0), NUM_ACTIONS)
        state = np.zeros(width, np.uint8)
        for i in range(capacity + 3):
            buf.push(state, np.zeros(NUM_CELLS, dtype=int), 1.0, state, False)
        assert buf.codes.nbytes == (capacity + 1) * width
        return sum(a.nbytes for a in vars(buf).values() if isinstance(a, np.ndarray)
                   and a is not buf.scale)

    assert held_bytes(300) - held_bytes(27) == (capacity + 1) * (300 - 27)
