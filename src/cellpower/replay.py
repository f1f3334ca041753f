"""Fixed-capacity experience replay with uniform sampling."""

import numpy as np


class ReplayBuffer:
    """Ring of transitions that stores each state once, as the uint8 codes
    the env gives: entry j decodes to code j / scale[j], with `scale` the
    env's state_scale. Push p fills row p % capacity, records p in `push_no` and
    keeps its state in code slot p % (capacity + 1) and its next state in
    the following slot, which is push p + 1's state (unless row p is
    terminal: then push p + 1 overwrites it, and no target reads it).
    A row's K action indices, each in 0..num_actions - 1 as the env has
    checked, are kept in the smallest unsigned type that holds them.
    `target_max` (capacity, K) caches the target network's per-cell block
    maxima at each next state, valid where `fresh` is set."""

    def __init__(self, capacity: int, scale: np.ndarray, num_actions: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity, self.scale, self.pushes = capacity, scale, 0
        self.action_type = np.min_scalar_type(num_actions - 1)
        self.codes = None    # the first push makes it and the rest with np.empty

    def __len__(self):
        return min(self.pushes, self.capacity)

    def push(self, state, action, reward, next_state, terminal) -> None:
        for name, s in (("state", state), ("next_state", next_state)):
            s = np.asarray(s)
            if s.dtype != np.uint8 or s.shape != self.scale.shape:
                raise ValueError(f"{name} is {s.dtype} of shape {s.shape}, not a uint8 row "
                                 f"of {len(self.scale)} codes")
        c, k = self.capacity, len(action)
        if self.codes is None:
            self.codes = np.empty((c + 1, len(self.scale)), np.uint8)
            self.push_no, self.reward = np.empty(c, np.int64), np.empty(c)
            self.action, self.target_max = np.empty((c, k), self.action_type), np.empty((c, k))
            self.terminal, self.fresh = np.empty(c, bool), np.empty(c, bool)
        p, i = self.pushes, self.pushes % c
        if p and not self.terminal[(p - 1) % c]:       # then state is in its slot already
            if state.tobytes() != self.codes[p % (c + 1)].tobytes():
                raise ValueError(f"push {p}'s state is not the next state of push {p - 1}")
        else:
            self.codes[p % (c + 1)] = state
        self.codes[(p + 1) % (c + 1)] = next_state
        self.push_no[i], self.action[i], self.reward[i] = p, action, reward
        self.terminal[i], self.fresh[i] = terminal, False
        self.pushes += 1

    def states(self, rows, offset: int) -> np.ndarray:
        """The float64 states (offset 0) or next states (offset 1) of rows `rows`."""
        slots = self.push_no[rows] + offset if offset else self.push_no[rows]
        return self.codes.take(slots % (self.capacity + 1), axis=0) / self.scale

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple:
        """(states, actions, rows) of batch_size rows drawn uniformly with
        replacement; `rows` index reward, terminal, states and target_max."""
        if batch_size > len(self):
            raise ValueError(f"buffer holds {len(self)} < batch size {batch_size}")
        rows = rng.integers(0, len(self), size=batch_size)
        return self.states(rows, offset=0), self.action[rows], rows
