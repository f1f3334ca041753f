"""One-hidden-layer MLP with hand-written backprop and RMSprop.

The network maps a flat state to K blocks of m action values:
q = W2 relu(W1 s + b1) + b2. It computes in the element type of its
parameter buffer, float32 or float64: the accumulators, the gradient and
the scratch rows take that type, and inputs are cast to it. Training runs
float32, which halves the bytes each step streams through W1 and W2; the
tests' oracles (finite differences, the bitwise learner reference, the
target cache) build float64 networks, where tight tolerances hold.

W1, b1, W2 and b2 are views into one contiguous buffer, `MLP.flat`, laid
out in the checkpoint's payload order. The RMSprop accumulators and the
gradient that backprop writes use the same layout, so cloning, the
optimizer step and checkpoint I/O each run over whole buffers.

A training step selects K of the output units per sample; the batch's
live set is the sorted distinct units its samples selected, L of them.
Only those rows of W2 and entries of b2 get a nonzero gradient, so the
step computes them alone, and W1's backward pass multiplies by those L
rows of W2 only. The gradient buffer holds W1 and b1 in full, then the
gradient rows of the live units packed into the first L rows of the W2
region and the first L entries of the b2 region. The rest of those two
regions is neither written nor read.

Checkpoint layout (little-endian, flat binary):
  8 bytes   magic, which names the element type of the arrays:
            b"CPQNET1\\n" float64 (<f8), b"CPQNET2\\n" float32 (<f4)
  3 int64   layer sizes: input, hidden, output
  3 float64 optimizer learning_rate, decay, epsilon
  arrays of the element type, row-major, in order:
    W1 (hidden x input), b1 (hidden), W2 (output x hidden), b2 (output),
    then the four RMSprop accumulators in the same shapes.
  That is the parameter buffer followed by the accumulator buffer, each
  in the network's own precision.
"""

import math
import os

import numpy as np

# Each checkpoint magic and the element type of the arrays it heads.
CHECKPOINT_DTYPES = {b"CPQNET1\n": np.dtype("<f8"), b"CPQNET2\n": np.dtype("<f4")}

# Elements per block of the RMSprop update. A dense block's nine passes
# (its decay, then the step) over parameters, accumulators, gradient and
# two scratch rows (5 x 256 KiB in float64, 5 x 128 KiB in float32) stay
# in cache, as does a compacted update's chunk of gathered live W2 rows,
# at most one block, or one row. On a 2-vCPU Xeon with 2 MiB of L2 per
# core, an isolated dense float64 update of the 3.0M-parameter scenario3
# network took 8.3-8.5 ms with this block size, 9.9-10.5 ms with 8k and
# 11.0-11.1 ms with 128k (the host's speed drifts: it has also run the 32k
# update in 5.5 ms). The block size also decides whether a step is dense
# or compacted (see train_batch), and so the last bits of its results.
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
        """A network in the precision of the arrays given: float32 if they
        are float32, float64 for anything else."""
        arrays = [np.asarray(a) for a in (w1, b1, w2, b2)]
        dtype = np.float32 if np.result_type(*arrays) == np.float32 else np.float64
        self._bind(np.concatenate([a.ravel() for a in arrays], dtype=dtype),
                   [a.shape for a in arrays])

    def _bind(self, flat, shapes):
        """Make `flat` the parameter buffer, with W1/b1/W2/b2 views into it."""
        self.flat = flat
        self._shapes = shapes
        self.w1, self.b1, self.w2, self.b2 = _views(flat, shapes)
        return self

    @classmethod
    def init(cls, layer_sizes, rng: np.random.Generator,
             dtype=np.float64) -> "MLP":
        """He-normal weights (std sqrt(2/fan_in)), zero biases, in `dtype`;
        the draws are float64 in either precision, then cast."""
        n_in, n_hidden, n_out = layer_sizes
        if min(n_in, n_hidden, n_out) < 1:
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        w1 = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_hidden, n_in))
        w2 = rng.normal(0.0, np.sqrt(2.0 / n_hidden), size=(n_out, n_hidden))
        return cls(w1.astype(dtype), np.zeros(n_hidden, dtype),
                   w2.astype(dtype), np.zeros(n_out, dtype))

    @property
    def layer_sizes(self) -> tuple[int, int, int]:
        return (self.w1.shape[1], self.w1.shape[0], self.w2.shape[0])

    def forward(self, state: np.ndarray) -> np.ndarray:
        """Action values; accepts one state (in,) or a batch (n, in)."""
        x = np.asarray(state, dtype=self.flat.dtype)
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

    A zero gradient leaves p unchanged bit for bit and adds exactly +0 to
    the decayed accumulator, so a compacted update decays all of W2's and
    b2's accumulators, then steps only the rows of the step's live set.
    `acc` shares the network's flat layout; `grad` (the buffer a training
    step writes its gradient into) has it too, with the W2 and b2
    gradients packed as the module docstring says.
    """

    def __init__(self, mlp: MLP, learning_rate: float, decay: float,
                 epsilon: float):
        self.learning_rate = learning_rate
        self.decay = decay
        self.epsilon = epsilon
        self.acc = np.zeros_like(mlp.flat)
        self.grad = np.empty_like(mlp.flat)
        # two rows for the formula's temporaries; a block holds at least one
        # W2 row, even one wider than UPDATE_BLOCK
        width = min(max(UPDATE_BLOCK, mlp.w2.shape[1]), mlp.flat.size)
        self._scratch = np.empty((2, width), dtype=mlp.flat.dtype)

    def apply(self, mlp: MLP, grad: np.ndarray, live: np.ndarray) -> None:
        """Update mlp.flat from the flat gradient `grad`, whose W2 and b2
        gradients are packed for the sorted output units `live`. W1 and b1
        are updated UPDATE_BLOCK elements at a time; unless every output
        is live, W2's and b2's accumulators then decay, and the live rows
        are stepped in gathered chunks of at most one block."""
        # with every output live the gradient is unpacked: one dense pass
        dense = (mlp.flat.size if live.size == len(mlp.b2)
                 else mlp.w1.size + mlp.b1.size)
        for start in range(0, dense, UPDATE_BLOCK):
            block = slice(start, min(start + UPDATE_BLOCK, dense))
            a = self.acc[block]
            a *= self.decay
            self._step(mlp.flat[block], a, grad[block])
        if dense == mlp.flat.size:
            return
        regions = zip((mlp.w2, mlp.b2), _views(self.acc, mlp._shapes)[2:],
                      _views(grad, mlp._shapes)[2:])
        for p, a, g in regions:
            p, a, g = (x.reshape(len(mlp.b2), -1) for x in (p, a, g))
            a *= self.decay
            rows = max(1, UPDATE_BLOCK // p.shape[1])
            for j in range(0, live.size, rows):
                index = live[j:j + rows]
                p_live, a_live = p[index], a[index]
                self._step(p_live, a_live, g[j:j + index.size])
                p[index], a[index] = p_live, a_live

    def _step(self, p, a, g):
        """The class formulas on one block whose accumulators have already
        decayed, in place. They are evaluated left to right, as whole-array
        numpy expressions would be, so the result is bit-for-bit theirs."""
        lr, decay, eps = self.learning_rate, self.decay, self.epsilon
        s = self._scratch[0, :g.size].reshape(g.shape)
        t = self._scratch[1, :g.size].reshape(g.shape)
        np.multiply(g, 1.0 - decay, out=s)
        s *= g
        a += s
        np.sqrt(a, out=s)
        s += eps
        np.multiply(g, lr, out=t)
        t /= s
        p -= t


def backprop(mlp: MLP, states: np.ndarray, grad_q: np.ndarray,
             h: np.ndarray, w2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Parameter gradients for a loss whose dL/dq is grad_q, (n, L), on L
    output units whose W2 rows are w2, (L, hidden), and zero on every other
    unit: every unit when w2 is all of W2, the live set of a compacted step
    otherwise. W1's backward pass runs over those L rows alone.

    h is the forward pass's hidden activations `relu(states @ W1.T + b1)`.
    The gradients are written into `out`, a buffer of mlp.flat's size and
    layout, with the W2 and b2 gradients of the L units packed (see the
    module docstring); `out` is returned.
    """
    x = np.asarray(states, dtype=mlp.flat.dtype)
    dw1, db1, dw2, db2 = _views(out, mlp._shapes)
    n_live = len(w2)
    np.matmul(grad_q.T, h, out=dw2[:n_live])
    np.add.reduce(grad_q, axis=0, out=db2[:n_live])
    dz1 = (grad_q @ w2) * (h > 0.0)
    np.matmul(dz1.T, x, out=dw1)
    np.add.reduce(dz1, axis=0, out=db1)
    return out


def train_batch(mlp: MLP, opt: RMSprop, states, actions, targets,
                block_size: int) -> float:
    """One RMSprop step on the mean squared error of the selected outputs.

    actions (n, K) holds each cell's chosen index inside its own block of
    block_size outputs; targets (n, K) the per-cell Bellman targets. The
    gradient flows only through the K selected units of each sample, so
    the output layer's forward pass, gradient and update, and W1's
    backward pass, run on the batch's live set alone, unless the rows left
    out are too few to pay for that. Returns the pre-update loss.
    """
    x = np.asarray(states, dtype=mlp.flat.dtype)
    acts = np.asarray(actions, dtype=int)
    y = np.asarray(targets, dtype=mlp.flat.dtype)
    n, num_cells = acts.shape

    # the live set, and each selected unit's column among the live ones. Unless
    # the rows left out (at most n_out - K) would fill an update block, the step
    # stays dense: cheaper, and it leaves those rows as a compacted step would
    n_out, n_hidden = mlp.w2.shape
    units = (acts + np.arange(num_cells) * block_size).reshape(-1)
    live, w2, b2, cols = np.arange(n_out), mlp.w2, mlp.b2, units
    if (n_out - num_cells) * n_hidden >= UPDATE_BLOCK:
        selected = np.zeros(n_out, dtype=bool)
        selected[units] = True
        if (n_out - np.count_nonzero(selected)) * n_hidden >= UPDATE_BLOCK:
            live = np.flatnonzero(selected)
            w2, b2 = np.take(mlp.w2, live, axis=0), mlp.b2[live]
            cols = (np.cumsum(selected) - 1)[units]

    # MLP.forward's arithmetic on the live units, keeping the hidden
    # activations for backprop
    h = np.maximum(x @ mlp.w1.T + mlp.b1, 0.0)
    q = h @ w2.T + b2
    rows, cols = np.arange(n)[:, None], cols.reshape(n, num_cells)
    diff = q[rows, cols] - y
    # np.mean(diff ** 2)'s sum and division, without its wrappers
    loss = float(np.add.reduce(diff * diff, axis=None) / diff.size)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss: {loss}")

    # a sample's K units lie in distinct blocks, so no (row, col) repeats
    grad_q = np.zeros(q.shape, q.dtype)
    grad_q[rows, cols] = 2.0 * diff / diff.size
    opt.apply(mlp, backprop(mlp, x, grad_q, h, w2, opt.grad), live)
    return loss


def save_checkpoint(path, mlp: MLP, opt: RMSprop) -> None:
    """Write the network and its accumulators in their own precision."""
    dtype = mlp.flat.dtype.newbyteorder("<")
    magic = next(m for m, t in CHECKPOINT_DTYPES.items() if t == dtype)
    sizes = np.array(mlp.layer_sizes, dtype="<i8")
    hyper = np.array([opt.learning_rate, opt.decay, opt.epsilon], dtype="<f8")
    with open(path, "wb") as f:
        f.write(magic)
        sizes.tofile(f)
        hyper.tofile(f)
        for flat in (mlp.flat, opt.acc):
            np.asarray(flat, dtype=dtype).tofile(f)


def load_checkpoint(path) -> tuple[MLP, RMSprop]:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic not in CHECKPOINT_DTYPES:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        dtype = CHECKPOINT_DTYPES[magic]
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
        # checked before reading: np.fromfile allocates all `count` floats
        # first, so a corrupt header would ask for any amount of memory
        left = os.fstat(f.fileno()).st_size - f.tell()
        need = 2 * dtype.itemsize * count
        if left != need:
            raise CheckpointError(
                f"{path}: sizes {n_in}/{n_hidden}/{n_out} need {need} bytes "
                f"of {dtype} parameters and RMSprop accumulators, but {left} follow")
        buffers = [np.fromfile(f, dtype=dtype, count=count) for _ in range(2)]
    mlp = MLP.__new__(MLP)._bind(buffers[0], shapes)
    opt = RMSprop(mlp, learning_rate=float(lr), decay=float(decay), epsilon=float(eps))
    opt.acc = buffers[1]
    return mlp, opt
