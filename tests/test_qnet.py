import os
import threading

import numpy as np
import pytest

from cellpower.agent import AgentConfig
from cellpower.qnet import (
    MLP,
    UPDATE_BLOCK,
    CheckpointError,
    RMSprop,
    backprop,
    load_checkpoint,
    save_checkpoint,
    train_batch,
)

from conftest import (
    agent_optimizer,
    exact_targets,
    finite_difference_max_error,
    reference_checkpoint_bytes,
    reference_train_batch,
    selected_unit_loss,
    split_flat,
)


class TestInit:
    @pytest.mark.parametrize("sizes", [(100, 720, 360), (200, 1440, 720),
                                       (300, 2160, 1080)])
    def test_reference_layer_sizes(self, sizes, rng):
        mlp = MLP.init(sizes, rng)
        assert mlp.layer_sizes == sizes
        assert mlp.w1.shape == (sizes[1], sizes[0])
        assert mlp.w2.shape == (sizes[2], sizes[1])

    def test_zero_input_gives_zero_output(self, rng):
        mlp = MLP.init((10, 20, 5), rng)
        assert np.array_equal(mlp.forward(np.zeros(10)), np.zeros(5))

    def test_he_scale(self, rng):
        mlp = MLP.init((400, 800, 100), rng)
        assert mlp.w1.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.05)
        assert np.all(mlp.b1 == 0.0) and np.all(mlp.b2 == 0.0)

    def test_bad_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            MLP.init((0, 5, 5), rng)

    def test_float32_init_casts_the_float64_draws(self):
        net32 = MLP.init((5, 8, 4), np.random.default_rng(3), np.float32)
        net64 = MLP.init((5, 8, 4), np.random.default_rng(3))
        assert net32.flat.dtype == np.float32 and net64.flat.dtype == np.float64
        assert np.array_equal(net32.flat, net64.flat.astype(np.float32))

    def test_arrays_keep_float32_anything_else_is_float64(self):
        arrays = [np.ones(shape, np.float32) for shape in ((8, 5), (8,), (4, 8), (4,))]
        assert MLP(*arrays).flat.dtype == np.float32
        assert MLP(*arrays).clone().flat.dtype == np.float32
        assert MLP(*arrays[:3], [0, 0, 0, 0]).flat.dtype == np.float64
        assert MLP(*(a.tolist() for a in arrays)).flat.dtype == np.float64
        # float64 input is cast to the network's precision
        assert MLP(*arrays).forward(np.ones(5)).dtype == np.float32


class TestForward:
    def test_zero_weights_zero_output(self):
        mlp = MLP(np.zeros((3, 2)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        assert np.array_equal(mlp.forward(np.ones(2)), np.zeros(4))

    def test_rectifier_identity_net(self):
        mlp = MLP(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))
        assert mlp.forward(np.array([2.0]))[0] == 2.0
        assert mlp.forward(np.array([-2.0]))[0] == 0.0

    def test_batch_equals_loop(self, rng):
        mlp = MLP.init((6, 11, 4), rng)
        states = rng.normal(size=(7, 6))
        batched = mlp.forward(states)
        for i in range(7):
            # BLAS may batch with different instruction paths; demand agreement
            # to the last few ulps rather than bitwise identity
            assert np.allclose(batched[i], mlp.forward(states[i]),
                               rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch_rejected(self, rng):
        mlp = MLP.init((6, 11, 4), rng)
        with pytest.raises(ValueError):
            mlp.forward(np.zeros(5))

    def test_forward_is_pure(self, rng):
        mlp = MLP.init((6, 11, 4), rng)
        x = rng.normal(size=6)
        assert np.array_equal(mlp.forward(x), mlp.forward(x))


class TestTrainBatch:
    def _random_problem(self, rng, n=5, sizes=(6, 9, 8), num_cells=2):
        mlp = MLP.init(sizes, rng)
        block = sizes[2] // num_cells
        states = rng.normal(size=(n, sizes[0]))
        actions = rng.integers(0, block, size=(n, num_cells))
        targets = rng.normal(size=(n, num_cells))
        return mlp, states, actions, targets, block

    def test_perfect_targets_leave_parameters_unchanged(self, rng):
        mlp, states, actions, targets, block = self._random_problem(rng)
        q = mlp.forward(states)
        for i in range(len(states)):
            for k in range(2):
                targets[i, k] = q[i, k * block + actions[i, k]]
        opt = agent_optimizer(mlp, AgentConfig(learning_rate=0.01))
        before = mlp.flat.copy()
        loss = train_batch(mlp, opt, states, actions, targets, block)
        assert loss == 0.0
        assert np.array_equal(mlp.flat, before)

    def test_analytic_gradient_linear_regime(self):
        # positive input keeps the rectifier in its linear branch:
        # q = w2 * s, dL/dw2 = 2 (q - y) s
        mlp = MLP(np.array([[1.0]]), np.zeros(1), np.array([[0.7]]), np.zeros(1))
        s, y = 1.7, 0.3
        q = mlp.forward(np.array([s]))[0]
        x = np.array([[s]])
        h, grad_q = np.maximum(x @ mlp.w1.T + mlp.b1, 0.0), np.array([[2.0 * (q - y)]])
        grads = split_flat(backprop(mlp, x, grad_q, h, mlp.w2, np.empty_like(mlp.flat)),
                           mlp)
        assert grads[2][0, 0] == pytest.approx(2.0 * (q - y) * s, rel=1e-12)
        # and through the hidden unit: dL/dw1 = 2 (q - y) w2 s
        assert grads[0][0, 0] == pytest.approx(2.0 * (q - y) * 0.7 * s, rel=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(5):
            mlp, states, actions, targets, block = self._random_problem(rng)
            err = finite_difference_max_error(mlp, states, actions, targets, block)
            assert err < 1e-4

    def test_returns_pre_update_loss(self, rng):
        mlp, states, actions, targets, block = self._random_problem(rng)
        expected = selected_unit_loss(mlp, states, actions, targets, block)
        loss = train_batch(mlp, agent_optimizer(mlp, AgentConfig()), states, actions,
                           targets, block)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss >= 0.0

    def test_batch_loss_is_mean_of_samples(self, rng):
        mlp, states, actions, targets, block = self._random_problem(rng, n=6)
        per_sample = [selected_unit_loss(mlp, states[i:i + 1], actions[i:i + 1],
                                         targets[i:i + 1], block)
                      for i in range(6)]
        whole = selected_unit_loss(mlp, states, actions, targets, block)
        assert whole == pytest.approx(np.mean(per_sample), rel=1e-12)

    def test_non_finite_loss_raises(self, rng):
        mlp, states, actions, targets, block = self._random_problem(rng)
        targets[0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            train_batch(mlp, agent_optimizer(mlp, AgentConfig()), states, actions,
                        targets, block)
        # on a network wide enough for a compacted step the loss is checked
        # before any update: nothing is written
        mlp, states, actions, targets, block = self._random_problem(
            rng, n=64, sizes=(100, 720, 360), num_cells=5)
        targets[3, 2] = np.nan
        opt = agent_optimizer(mlp, AgentConfig())
        opt.acc[:] = rng.random(opt.acc.size)
        flat, acc = mlp.flat.copy(), opt.acc.copy()
        with pytest.raises(FloatingPointError):
            train_batch(mlp, opt, states, actions, targets, block)
        assert np.array_equal(mlp.flat, flat) and np.array_equal(opt.acc, acc)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sizes, num_cells, compacted", [
        ((27, 108, 27), 3, False),      # the desk network, whose steps are dense
        ((100, 720, 360), 5, True),     # scenario1 width, a live set of about 215
    ], ids=["dense", "compacted"])
    def test_loss_is_numpy_mean_bit_for_bit(self, rng, dtype, sizes, num_cells,
                                            compacted):
        mlp = MLP.init(sizes, rng, dtype)
        n, block = 64, sizes[2] // num_cells
        states = rng.integers(1, 16, size=(n, sizes[0])) / 15.0
        actions = rng.integers(0, block, size=(n, num_cells))
        targets = rng.normal(size=(n, num_cells))
        # the forward pass of the step, over the live units when compacted
        x, y = states.astype(dtype), targets.astype(dtype)
        h = np.maximum(x @ mlp.w1.T + mlp.b1, 0.0)
        units = actions + np.arange(num_cells) * block
        live = np.unique(units) if compacted else np.arange(sizes[2])
        q = h @ np.take(mlp.w2, live, axis=0).T + mlp.b2[live]
        diff = q[np.arange(n)[:, None], np.searchsorted(live, units)] - y
        assert diff.dtype == dtype
        opt = agent_optimizer(mlp, AgentConfig())
        opt.grad[:] = np.nan
        loss = train_batch(mlp, opt, states, actions, targets, block)
        # a compacted step leaves the b2 gradient past the live entries unwritten
        assert np.isnan(split_flat(opt.grad, mlp)[3]).any() == compacted
        assert loss.hex() == float(np.mean(diff ** 2)).hex()

    def test_compacted_step_starts_no_thread(self, rng, monkeypatch):
        # a scenario1-width step on a process that reports CPUs to spare:
        # the step still runs on the calling thread alone
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count the process's threads")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        mlp, states, actions, targets, block = self._random_problem(
            rng, n=64, sizes=(100, 720, 360), num_cells=5)
        live = np.unique(actions + np.arange(5) * block)
        assert (360 - live.size) * 720 >= UPDATE_BLOCK
        opt = agent_optimizer(mlp, AgentConfig())
        threads = threading.active_count(), len(os.listdir("/proc/self/task"))
        train_batch(mlp, opt, states, actions, targets, block)
        assert (threading.active_count(),
                len(os.listdir("/proc/self/task"))) == threads

    def test_training_reduces_loss(self, rng):
        mlp, states, actions, targets, block = self._random_problem(rng, n=16)
        opt = agent_optimizer(mlp, AgentConfig(learning_rate=0.01))
        first = train_batch(mlp, opt, states, actions, targets, block)
        for _ in range(200):
            last = train_batch(mlp, opt, states, actions, targets, block)
        assert last < first * 0.1


class TestRmsprop:
    def test_zero_gradient_is_a_no_op(self, rng):
        # every output live (the dense pass), and one live output (the row
        # path, whose other rows only decay)
        for live in ([0, 1, 2], [1]):
            mlp = MLP.init((4, 6, 3), rng)
            opt = agent_optimizer(mlp, AgentConfig(learning_rate=0.5))
            for a in split_flat(opt.acc, mlp):
                a[...] = np.abs(rng.normal(size=a.shape))
            before = mlp.flat.copy()
            acc_before = [a.copy() for a in split_flat(opt.acc, mlp)]
            opt.apply(mlp, np.zeros_like(mlp.flat), np.array(live))
            assert np.array_equal(mlp.flat, before)
            for a, b in zip(split_flat(opt.acc, mlp), acc_before):   # accumulators only decay
                assert np.array_equal(a, b * opt.decay)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_compacted_update_equals_dense_update(self, rng, dtype):
        # the update is elementwise, so on any inputs a compacted update
        # from a packed gradient equals, bit for bit, a dense one from the
        # unpacked gradient, whose rows outside the live set are zero
        sizes = (8, 700, 100)
        n_out, chunk = sizes[2], UPDATE_BLOCK // sizes[1]
        some = [np.sort(rng.choice(n_out, size, replace=False))
                for size in (chunk, chunk + 1)]
        for live in ([37], [0, n_out - 1], *some, np.delete(np.arange(n_out), 58)):
            live = np.asarray(live)
            nets = [MLP.init(sizes, rng, dtype)]
            nets[0].flat[:] = rng.normal(size=nets[0].flat.size)
            before = nets[0].flat.copy()
            nets.append(nets[0].clone())
            opts = [RMSprop(net, learning_rate=0.01, decay=0.9, epsilon=1e-6)
                    for net in nets]
            opts[0].acc[:] = opts[1].acc[:] = rng.random(nets[0].flat.size)
            dense = rng.normal(size=nets[0].flat.size).astype(dtype)
            packed = dense.copy()
            dead = np.setdiff1d(np.arange(n_out), live)
            for d, p in zip(split_flat(dense, nets[0])[2:],
                            split_flat(packed, nets[0])[2:]):
                p[:live.size] = d[live]
                p[live.size:] = np.nan       # never read
                d[dead] = 0.0
            opts[0].apply(nets[0], packed, live)
            opts[1].apply(nets[1], dense, np.arange(n_out))
            assert np.array_equal(nets[0].flat, nets[1].flat)
            assert np.array_equal(opts[0].acc, opts[1].acc)
            moved = nets[0].w2 != split_flat(before, nets[0])[2]
            assert moved[live].any(axis=1).all() and not moved[dead].any()


class TestFlatLearnerOracle:
    """The flat-buffer learner against the four-array reference in conftest:
    the same arithmetic in the same order, so results must match bit for bit.
    The network spans more than one RMSprop update block and ends in a
    partial one."""

    SIZES = (30, 700, 60)       # 63,760 parameters
    CELLS = 3
    HYPER = dict(learning_rate=0.01, decay=0.9, epsilon=1e-6)

    def _train_both(self, rng, steps=20, n=8, actions=None, exact=False):
        """Train both learners on the same batches; each step draws its
        actions unless `actions` (n, CELLS) is given.

        With `exact`, the states are small integers and, before every step,
        both learners are checked bit-equal and their weights rounded to
        multiples of 2^-10; the targets come from conftest.exact_targets.
        Every forward and backward sum is then exact in any order, so a step
        that runs the Q-head and W1's backward pass on the live units alone
        (narrower GEMMs, which BLAS may round differently in the last bit)
        still computes the reference's values."""
        mlp = MLP.init(self.SIZES, rng)
        assert UPDATE_BLOCK < mlp.flat.size and mlp.flat.size % UPDATE_BLOCK
        opt = RMSprop(mlp, **self.HYPER)
        params = [p.copy() for p in (mlp.w1, mlp.b1, mlp.w2, mlp.b2)]
        acc = [np.zeros_like(p) for p in params]
        block = self.SIZES[2] // self.CELLS
        for _ in range(steps):
            if exact:
                self._assert_bitwise_equal(mlp, opt, params, acc)
                for p in (mlp.flat, *params):
                    p[:] = np.round(p * 2.0 ** 10) / 2.0 ** 10
                states = rng.integers(-4, 5, size=(n, self.SIZES[0])).astype(float)
            else:
                states = rng.normal(size=(n, self.SIZES[0]))
            acts = (rng.integers(0, block, size=(n, self.CELLS))
                    if actions is None else actions)
            targets = (exact_targets(mlp, states, acts, block, rng) if exact
                       else rng.normal(size=(n, self.CELLS)))
            loss = train_batch(mlp, opt, states, acts, targets, block)
            ref_loss = reference_train_batch(params, acc, states, acts,
                                             targets, block, **self.HYPER)
            assert loss == ref_loss
        return mlp, opt, params, acc

    @staticmethod
    def _assert_bitwise_equal(mlp, opt, params, acc):
        for got, want in zip((mlp.w1, mlp.b1, mlp.w2, mlp.b2), params):
            assert np.array_equal(got, want)
        for got, want in zip(split_flat(opt.acc, mlp), acc):
            assert np.array_equal(got, want)

    def test_repeated_actions_across_samples_bitwise_equal(self, rng):
        # every sample picks the same units in cells 0 and 2, and one of two
        # in cell 1, so columns repeat across rows; the reference
        # accumulates the selected gradients with np.add.at. The step is
        # compacted (4 of 60 units live), hence the exact-arithmetic inputs.
        actions = np.tile([[3, 0, 19]], (8, 1))
        actions[::2, 1] = 5
        mlp, opt, params, acc = self._train_both(rng, steps=3, actions=actions,
                                                 exact=True)
        self._assert_bitwise_equal(mlp, opt, params, acc)

    def test_parameters_and_accumulators_bitwise_equal(self, rng):
        mlp, opt, params, acc = self._train_both(rng)
        self._assert_bitwise_equal(mlp, opt, params, acc)
        assert all(np.any(a > 0.0) for a in acc)    # every array was updated

    def test_checkpoint_bytes_match_documented_format(self, tmp_path, rng):
        mlp, opt, params, acc = self._train_both(rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, opt)
        assert path.read_bytes() == reference_checkpoint_bytes(
            params, acc, **self.HYPER)


class TestPrecision:
    """One step of a float32 network against a float64 network with the same
    weights and accumulators (float32 values, held exactly by both)."""

    HYPER = dict(learning_rate=0.01, decay=0.9, epsilon=1e-6)

    @pytest.mark.parametrize("sizes, cells, compacted", [
        ((7, 12, 6), 2, False), ((20, 256, 200), 10, True)],
        ids=["dense", "compacted"])
    def test_one_step_agrees_to_float32_precision(self, rng, sizes, cells,
                                                  compacted):
        net32 = MLP.init(sizes, rng, np.float32)
        net64 = MLP(*(a.astype(np.float64)
                      for a in (net32.w1, net32.b1, net32.w2, net32.b2)))
        opts = [RMSprop(net, **self.HYPER) for net in (net32, net64)]
        acc = rng.random(net32.flat.size).astype(np.float32)
        for opt in opts:
            opt.acc[:] = acc
        n, block = 4, sizes[2] // cells
        states = rng.normal(size=(n, sizes[0]))
        actions = rng.integers(0, block, size=(n, cells))
        targets = rng.normal(size=(n, cells))
        live = np.unique(actions + np.arange(cells) * block)
        assert ((sizes[2] - live.size) * sizes[1] >= UPDATE_BLOCK) == compacted

        before = net64.flat.copy()
        loss32, loss64 = (train_batch(net, opt, states, actions, targets, block)
                          for net, opt in zip((net32, net64), opts))
        assert net32.flat.dtype == opts[0].acc.dtype == opts[0].grad.dtype == np.float32
        assert net64.flat.dtype == opts[1].acc.dtype == np.float64
        eps32 = np.finfo(np.float32).eps
        assert loss32 == pytest.approx(loss64, rel=100 * eps32)
        # each step is lr * g / (sqrt(acc) + eps); the float32 parameter it
        # lands on is rounded to half an ulp of itself
        step32, step64 = net32.flat - before, net64.flat - before
        assert np.any(step64 != 0.0)
        np.testing.assert_allclose(step32, step64, rtol=1e-4,
                                   atol=eps32 * np.abs(before).max())
        np.testing.assert_allclose(opts[0].acc, opts[1].acc, rtol=16 * eps32)


class TestLiveSetStep:
    """The step on a batch that selects few output units, at scenario3 width,
    against the dense four-array reference in conftest.

    The Q-head and W1's backward pass run on the live units alone, and BLAS
    may round a narrower product differently in the last bit. The weights
    are therefore multiples of 2^-10, the states small integers and the
    targets from conftest.exact_targets, which makes every forward and
    backward sum exact in any order. Then W1, b1, the live W2 rows and b2
    entries must match the reference bit for bit, and every other row must
    keep its parameters and only decay its accumulators."""

    SIZES = (300, 2160, 1080)
    CELLS = 15
    HYPER = dict(learning_rate=0.01, decay=0.9, epsilon=1e-6)

    def _step_both(self, rng, sizes, actions):
        """One step of the flat learner and of the reference from the same
        network, with accumulators already nonzero so that their decay
        shows. Returns both, the state before the step and the live set."""
        mlp = MLP.init(sizes, rng)
        mlp.flat[:] = np.round(mlp.flat * 2.0 ** 10) / 2.0 ** 10
        opt = RMSprop(mlp, **self.HYPER)
        opt.acc[:] = rng.random(opt.acc.size)
        opt.grad[:] = np.nan
        params = [p.copy() for p in (mlp.w1, mlp.b1, mlp.w2, mlp.b2)]
        acc = [a.copy() for a in split_flat(opt.acc, mlp)]
        before = [p.copy() for p in params], [a.copy() for a in acc]

        n, cells = actions.shape
        block = sizes[2] // cells
        states = rng.integers(-4, 5, size=(n, sizes[0])).astype(float)
        targets = exact_targets(mlp, states, actions, block, rng)
        loss = train_batch(mlp, opt, states, actions, targets, block)
        assert loss == reference_train_batch(params, acc, states, actions, targets,
                                             block, **self.HYPER)
        live = np.unique(actions + np.arange(cells) * block)
        return mlp, opt, params, acc, before, live

    def _few_units(self, rng, n=16):
        """Each cell but the first picks one of two actions; the first picks
        units 0-14, as many rows as a chunk of the update holds
        (UPDATE_BLOCK // 2160). So 29 to 43 of the 1080 units are live, and
        they span several chunks."""
        actions = 5 + 11 * rng.integers(0, 2, size=(n, self.CELLS))
        actions[:, 0] = np.arange(n) % 15
        return actions

    def _assert_matches_reference(self, mlp, opt, params, acc, before, live):
        # the step was compacted: the gradient rows past the packed ones
        # were never written
        for grad in split_flat(opt.grad, mlp)[2:]:
            assert np.isnan(grad[live.size:]).all()
        params0, acc0 = before
        got_acc = split_flat(opt.acc, mlp)
        for i, got in enumerate((mlp.w1, mlp.b1)):
            assert np.array_equal(got, params[i])
            assert np.array_equal(got_acc[i], acc[i])
        dead = np.setdiff1d(np.arange(len(mlp.b2)), live)
        for i, got in ((2, mlp.w2), (3, mlp.b2)):
            assert np.array_equal(got[live], params[i][live])
            assert np.array_equal(got_acc[i][live], acc[i][live])
            assert np.array_equal(got[dead], params0[i][dead])
            assert np.array_equal(got_acc[i][dead], acc0[i][dead] * opt.decay)

    def test_few_live_units(self, rng):
        mlp, opt, params, acc, before, live = self._step_both(
            rng, self.SIZES, self._few_units(rng))
        assert 29 <= live.size <= 43
        self._assert_matches_reference(mlp, opt, params, acc, before, live)
        # every live row moved
        assert np.all(np.any(mlp.w2[live] != before[0][2][live], axis=1))

    def test_all_live_batch_bitwise_equal(self, rng):
        block = self.SIZES[2] // self.CELLS
        actions = (np.arange(block)[:, None] + np.arange(self.CELLS)) % block
        mlp, opt, params, acc, _, live = self._step_both(rng, self.SIZES, actions)
        assert live.size == self.SIZES[2]
        for got, want in zip((mlp.w1, mlp.b1, mlp.w2, mlp.b2), params):
            assert np.array_equal(got, want)
        for got, want in zip(split_flat(opt.acc, mlp), acc):
            assert np.array_equal(got, want)

    def test_single_live_unit(self, rng):
        # one cell whose every sample picks the same action: L = 1
        sizes = (self.SIZES[0], self.SIZES[1], self.SIZES[2] // self.CELLS)
        result = self._step_both(rng, sizes, np.full((8, 1), 40))
        assert result[-1].tolist() == [40]
        self._assert_matches_reference(*result)

    def test_output_row_wider_than_update_block(self, rng):
        # a W2 row wider than an update block: every chunk is one row
        sizes = (4, UPDATE_BLOCK + 1000, 4)
        actions = np.tile([[0, 1], [1, 1]], (4, 1))
        result = self._step_both(rng, sizes, actions)
        assert result[-1].tolist() == [0, 1, 3]
        assert (sizes[2] - 3) * sizes[1] >= UPDATE_BLOCK       # compacted
        self._assert_matches_reference(*result)


class TestClone:
    def test_clone_outputs_match(self, rng):
        mlp = MLP.init((5, 8, 4), rng)
        twin = mlp.clone()
        x = rng.normal(size=5)
        assert np.array_equal(mlp.forward(x), twin.forward(x))

    def test_training_original_leaves_clone_unchanged(self, rng):
        mlp = MLP.init((5, 8, 4), rng)
        twin = mlp.clone()
        x = rng.normal(size=5)
        before = twin.forward(x).copy()
        train_batch(mlp, agent_optimizer(mlp, AgentConfig(learning_rate=0.1)),
                    rng.normal(size=(3, 5)), rng.integers(0, 2, size=(3, 2)),
                    rng.normal(size=(3, 2)), 2)
        assert np.array_equal(twin.forward(x), before)
        assert not np.array_equal(mlp.forward(x), before)

    def test_clone_of_clone(self, rng):
        mlp = MLP.init((5, 8, 4), rng)
        assert np.array_equal(mlp.clone().clone().w1, mlp.w1)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        mlp = MLP.init((7, 12, 6), rng)
        opt = RMSprop(mlp, learning_rate=0.003, decay=0.9, epsilon=1e-5)
        train_batch(mlp, opt, rng.normal(size=(4, 7)),
                    rng.integers(0, 3, size=(4, 2)), rng.normal(size=(4, 2)), 3)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, opt)
        loaded, lopt = load_checkpoint(path)
        states = rng.normal(size=(100, 7))
        assert np.array_equal(mlp.forward(states), loaded.forward(states))
        assert lopt.learning_rate == opt.learning_rate
        assert lopt.decay == opt.decay
        assert lopt.epsilon == opt.epsilon
        assert np.array_equal(opt.acc, lopt.acc)

    def test_float32_round_trip_bit_exact(self, tmp_path, rng):
        mlp = MLP.init((7, 12, 6), rng, np.float32)
        opt = RMSprop(mlp, learning_rate=0.003, decay=0.9, epsilon=1e-5)
        train_batch(mlp, opt, rng.normal(size=(4, 7)),
                    rng.integers(0, 3, size=(4, 2)), rng.normal(size=(4, 2)), 3)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, opt)
        assert path.read_bytes() == reference_checkpoint_bytes(
            split_flat(mlp.flat, mlp), split_flat(opt.acc, mlp),
            0.003, 0.9, 1e-5, dtype="<f4")
        loaded, lopt = load_checkpoint(path)
        assert loaded.flat.dtype == lopt.acc.dtype == lopt.grad.dtype == np.float32
        assert np.array_equal(loaded.flat, mlp.flat)
        assert np.array_equal(lopt.acc, opt.acc)
        assert (lopt.learning_rate, lopt.decay, lopt.epsilon) == (0.003, 0.9, 1e-5)

    def test_float64_file_loads_as_float64(self, tmp_path, rng):
        mlp = MLP.init((7, 12, 6), rng)
        acc = rng.random(mlp.flat.size)
        path = tmp_path / "net.ckpt"
        path.write_bytes(reference_checkpoint_bytes(
            split_flat(mlp.flat, mlp), split_flat(acc, mlp), 0.003, 0.9, 1e-5))
        loaded, lopt = load_checkpoint(path)
        assert loaded.flat.dtype == lopt.acc.dtype == np.float64
        assert np.array_equal(loaded.flat, mlp.flat)
        assert np.array_equal(lopt.acc, acc)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        for magic in (b"NOTACKPT", b"CPQNET3\n", b"CPQNET1\r"):
            path.write_bytes(magic + b"\x00" * 64)
            with pytest.raises(CheckpointError, match="bad magic"):
                load_checkpoint(path)

    @pytest.mark.parametrize("dtype, other", [(np.float32, b"CPQNET1\n"),
                                              (np.float64, b"CPQNET2\n")])
    def test_magic_of_the_other_precision_rejected(self, tmp_path, rng, dtype,
                                                   other):
        # the length check counts elements of the magic's own type
        mlp = MLP.init((3, 4, 2), rng, dtype)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, agent_optimizer(mlp, AgentConfig()))
        path.write_bytes(other + path.read_bytes()[8:])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(path)

    # the oversized header implies a 32 TB payload, and np.fromfile allocates
    # what it is asked to read before reading it
    @pytest.mark.parametrize("sizes", [(0, 4, 2), (10 ** 6, 10 ** 6, 10 ** 6)],
                             ids=["zero_input", "oversized"])
    def test_corrupt_header_rejected(self, tmp_path, rng, sizes):
        mlp = MLP.init((3, 4, 2), rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, agent_optimizer(mlp, AgentConfig()))
        data = bytearray(path.read_bytes())
        data[8:32] = np.array(sizes, dtype="<i8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="net.ckpt"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, rng):
        mlp = MLP.init((7, 12, 6), rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, agent_optimizer(mlp, AgentConfig()))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [32, 40, 55])
    def test_truncated_in_optimizer_constants_rejected(self, tmp_path, rng, cut):
        # 8-byte magic and 24-byte size header, then three float64 constants
        mlp = MLP.init((3, 4, 2), rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, agent_optimizer(mlp, AgentConfig()))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointError, match="optimizer constants"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        mlp = MLP.init((3, 4, 2), rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, mlp, agent_optimizer(mlp, AgentConfig()))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
