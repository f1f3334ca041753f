"""Fixed-capacity experience replay with uniform sampling."""

import numpy as np


class ReplayBuffer:
    """Ring of row-aligned arrays, allocated by the first push (which fixes
    the widths) with np.empty, so a row costs memory once written.
    Push i writes row i % capacity, overwriting the oldest once full.

    Five arrays hold the transitions: state, action, reward, next_state and
    terminal. Two more cache the frozen target network's view of each next
    state for agent.bellman_targets: `target_max` (capacity, K) holds its
    per-cell block maxima, valid only where `fresh` is set. A push clears
    its row's flag; the trainer clears every flag when it clones the
    target network.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.pushes = 0
        self.state = self.action = self.reward = None
        self.next_state = self.terminal = None
        self.target_max = self.fresh = None

    def __len__(self):
        return min(self.pushes, self.capacity)

    def push(self, state, action, reward, next_state, terminal) -> None:
        c = self.capacity
        if self.state is None:
            self.state = np.empty((c, len(state)))
            self.action = np.empty((c, len(action)), dtype=int)
            self.reward = np.empty(c)
            self.next_state = np.empty((c, len(next_state)))
            self.terminal = np.empty(c, dtype=bool)
            self.target_max = np.empty((c, len(action)))
            self.fresh = np.empty(c, dtype=bool)
        i = self.pushes % c
        self.state[i] = state
        self.action[i] = action
        self.reward[i] = reward
        self.next_state[i] = next_state
        self.terminal[i] = terminal
        self.fresh[i] = False
        self.pushes += 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple:
        """(states, actions, rows) of batch_size rows drawn uniformly with
        replacement; `rows` are their row numbers, which index reward,
        next_state, terminal and the target cache."""
        if batch_size > len(self):
            raise ValueError(f"buffer holds {len(self)} < batch size {batch_size}")
        rows = rng.integers(0, len(self), size=batch_size)
        return self.state[rows], self.action[rows], rows
