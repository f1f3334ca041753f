"""One-hidden-layer MLP with hand-written backprop and RMSprop.

Everything is float64 numpy; small enough that tight finite-difference
gradient checks hold. The network maps a flat state to K blocks of m
action values: q = W2 relu(W1 s + b1) + b2.

W1, b1, W2 and b2 are views into one contiguous buffer, `MLP.flat`, laid
out in the checkpoint's payload order. The RMSprop accumulators and the
gradient that backprop writes use the same layout, so cloning, the
optimizer step and checkpoint I/O each run over whole buffers.

Checkpoint layout (little-endian, flat binary):
  8 bytes   magic b"CPQNET1\\n"
  3 int64   layer sizes: input, hidden, output
  3 float64 optimizer learning_rate, decay, epsilon
  float64 arrays, row-major, in order:
    W1 (hidden x input), b1 (hidden), W2 (output x hidden), b2 (output),
    then the four RMSprop accumulators in the same shapes.
  That is the parameter buffer followed by the accumulator buffer.
"""

import math

import numpy as np

CHECKPOINT_MAGIC = b"CPQNET1\n"

# Elements per block of the RMSprop update: each block's nine passes over
# parameters, accumulators, gradient and two scratch rows (5 x 256 KiB)
# stay in cache. On a 2-vCPU Xeon with 2 MiB of L2 per core, one update of
# the 3.0M-parameter scenario3 network took 20-22 ms with this block size,
# 23-25 ms with 8k and 26-27 ms with 128k.
UPDATE_BLOCK = 32_768


class CheckpointError(IOError):
    pass


def _views(flat, shapes):
    """Consecutive views of `flat`, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class MLP:
    def __init__(self, w1, b1, w2, b2):
        arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2)]
        self._bind(np.concatenate([a.ravel() for a in arrays]),
                   [a.shape for a in arrays])

    def _bind(self, flat, shapes):
        """Make `flat` the parameter buffer, with W1/b1/W2/b2 views into it."""
        self.flat = flat
        self._shapes = shapes
        self.w1, self.b1, self.w2, self.b2 = _views(flat, shapes)
        return self

    @classmethod
    def init(cls, layer_sizes, rng: np.random.Generator) -> "MLP":
        """He-normal weights (std sqrt(2/fan_in)), zero biases."""
        n_in, n_hidden, n_out = layer_sizes
        if min(n_in, n_hidden, n_out) < 1:
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        w1 = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_hidden, n_in))
        w2 = rng.normal(0.0, np.sqrt(2.0 / n_hidden), size=(n_out, n_hidden))
        return cls(w1, np.zeros(n_hidden), w2, np.zeros(n_out))

    @property
    def layer_sizes(self) -> tuple[int, int, int]:
        return (self.w1.shape[1], self.w1.shape[0], self.w2.shape[0])

    def forward(self, state: np.ndarray) -> np.ndarray:
        """Action values; accepts one state (in,) or a batch (n, in)."""
        x = np.asarray(state, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.w1.shape[1]:
            raise ValueError(f"state width {x.shape[1]} != input size {self.w1.shape[1]}")
        q = np.maximum(x @ self.w1.T + self.b1, 0.0) @ self.w2.T + self.b2
        return q[0] if single else q

    def clone(self) -> "MLP":
        return MLP.__new__(MLP)._bind(self.flat.copy(), self._shapes)


class RMSprop:
    """Per-parameter squared-gradient accumulator update, in place:

        acc = decay * acc + (1 - decay) * g * g
        p  -= lr * g / (sqrt(acc) + eps)

    A zero gradient leaves p unchanged. `acc` and `grad` (the buffer that
    train_batch's backprop writes into) share the network's flat layout.
    """

    def __init__(self, mlp: MLP, learning_rate: float, decay: float,
                 epsilon: float):
        self.learning_rate = learning_rate
        self.decay = decay
        self.epsilon = epsilon
        self.acc = np.zeros_like(mlp.flat)
        self.grad = np.empty_like(mlp.flat)
        self._scratch = np.empty((2, min(UPDATE_BLOCK, mlp.flat.size)))

    def apply(self, mlp: MLP, grad: np.ndarray) -> None:
        """Update mlp.flat from the flat gradient `grad`, UPDATE_BLOCK
        elements at a time. Each block evaluates the class formulas left to
        right, as whole-array numpy expressions would, so the result is
        bit-for-bit theirs."""
        lr, decay, eps = self.learning_rate, self.decay, self.epsilon
        for start in range(0, grad.size, UPDATE_BLOCK):
            block = slice(start, start + UPDATE_BLOCK)
            p, a, g = mlp.flat[block], self.acc[block], grad[block]
            s, t = self._scratch[:, :g.size]
            a *= decay
            np.multiply(g, 1.0 - decay, out=s)
            s *= g
            a += s
            np.sqrt(a, out=s)
            s += eps
            np.multiply(g, lr, out=t)
            t /= s
            p -= t


def backprop(mlp: MLP, states: np.ndarray, grad_q: np.ndarray,
             z1: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Parameter gradients for the loss whose dL/dq is grad_q, (n, out).

    z1 is the forward pass's hidden pre-activation `states @ W1.T + b1`.
    The gradients are written into `out`, a buffer of mlp.flat's size and
    layout, which is returned.
    """
    x = np.asarray(states, dtype=np.float64)
    dw1, db1, dw2, db2 = _views(out, mlp._shapes)
    np.matmul(grad_q.T, np.maximum(z1, 0.0), out=dw2)
    np.sum(grad_q, axis=0, out=db2)
    dz1 = (grad_q @ mlp.w2) * (z1 > 0.0)
    np.matmul(dz1.T, x, out=dw1)
    np.sum(dz1, axis=0, out=db1)
    return out


def train_batch(mlp: MLP, opt: RMSprop, states, actions, targets,
                block_size: int) -> float:
    """One RMSprop step on the mean squared error of the selected outputs.

    actions (n, K) holds each cell's chosen index inside its own block of
    block_size outputs; targets (n, K) the per-cell Bellman targets. The
    gradient flows only through the K selected units of each sample.
    Returns the pre-update loss.
    """
    x = np.asarray(states, dtype=np.float64)
    acts = np.asarray(actions, dtype=int)
    y = np.asarray(targets, dtype=np.float64)
    n, num_cells = acts.shape

    # MLP.forward's arithmetic, keeping z1 for backprop
    z1 = x @ mlp.w1.T + mlp.b1
    q = np.maximum(z1, 0.0) @ mlp.w2.T + mlp.b2
    units = acts + np.arange(num_cells) * block_size     # (n, K) flat output units
    rows = np.repeat(np.arange(n), num_cells)
    cols = units.reshape(-1)
    diff = q[rows, cols].reshape(n, num_cells) - y
    loss = float(np.mean(diff ** 2))
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss: {loss}")

    # a sample's K units lie in distinct blocks, so no (row, col) repeats
    grad_q = np.zeros_like(q)
    grad_q[rows, cols] = (2.0 * diff / diff.size).reshape(-1)
    opt.apply(mlp, backprop(mlp, x, grad_q, z1, opt.grad))
    return loss


def save_checkpoint(path, mlp: MLP, opt: RMSprop) -> None:
    sizes = np.array(mlp.layer_sizes, dtype="<i8")
    hyper = np.array([opt.learning_rate, opt.decay, opt.epsilon], dtype="<f8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        sizes.tofile(f)
        hyper.tofile(f)
        for flat in (mlp.flat, opt.acc):
            np.asarray(flat, dtype="<f8").tofile(f)


def load_checkpoint(path) -> tuple[MLP, RMSprop]:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        sizes = np.fromfile(f, dtype="<i8", count=3)
        if sizes.size != 3 or np.any(sizes < 1):
            raise CheckpointError(f"{path}: corrupt size header {sizes}")
        n_in, n_hidden, n_out = (int(v) for v in sizes)
        constants = np.fromfile(f, dtype="<f8", count=3)
        if constants.size != 3:
            raise CheckpointError(f"{path}: truncated in the optimizer constants")
        lr, decay, eps = constants
        shapes = [(n_hidden, n_in), (n_hidden,), (n_out, n_hidden), (n_out,)]
        count = sum(math.prod(shape) for shape in shapes)
        buffers = []
        for name in ("parameters", "RMSprop accumulators"):
            flat = np.fromfile(f, dtype="<f8", count=count)
            if flat.size != count:
                raise CheckpointError(
                    f"{path}: truncated in the {name} "
                    f"(sizes {n_in}/{n_hidden}/{n_out})")
            buffers.append(flat)
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after expected payload")
    mlp = MLP.__new__(MLP)._bind(buffers[0], shapes)
    opt = RMSprop(mlp, learning_rate=float(lr), decay=float(decay), epsilon=float(eps))
    opt.acc = buffers[1]
    return mlp, opt
