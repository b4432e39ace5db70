"""Synthetic server-program generator.

Server stacks (Section 1 of the paper) are deep: a request traverses a web
server, application logic, database engine and kernel I/O paths.  We model
this as a *layered* call graph:

* layer 0 holds the request-type entry points ("roots"),
* middle layers hold application/library functions,
* the last layer holds kernel trap handlers (entered via TRAP, left via
  TRAP_RET).

Calls always target a strictly deeper layer, which bounds dynamic call
depth by construction and matches the paper's observation that global
control flow forms call/return chains through the stack.  Function hotness
within a layer follows a Zipf distribution, and each call site prefers a
small cluster of callees (modelling modular software).  Conditional
branches inside functions have short forward offsets or short backward
loop offsets, giving the high intra-region spatial locality of Figure 3.
"""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cfg.model import BasicBlock, CondBehavior, Function, Program
from repro.errors import ProgramError
from repro.isa import BranchKind


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic program generator.

    The six workload profiles in :mod:`repro.workloads.profiles` are
    expressed as instances of this class; see that module for the
    calibration rationale.
    """

    #: Total number of functions, including roots and kernel handlers.
    n_functions: int = 2000
    #: Call-graph layers (software-stack depth).
    n_layers: int = 8
    #: Request-type entry points in layer 0.
    n_roots: int = 12
    #: Fraction of functions placed in the kernel (last) layer.
    kernel_fraction: float = 0.12
    #: Median basic blocks per function (lognormal).
    median_blocks: float = 9.0
    #: Lognormal sigma of blocks-per-function.
    sigma_blocks: float = 0.65
    #: Mean instructions per basic block (clipped to [2, 15]).
    mean_block_instrs: float = 5.5
    #: Fraction of non-terminator blocks ending in a CALL.
    call_fraction: float = 0.14
    #: Fraction of non-terminator blocks ending in an unconditional JUMP.
    jump_fraction: float = 0.05
    #: Fraction of non-terminator blocks ending in a TRAP (kernel entry).
    trap_fraction: float = 0.015
    #: Fraction of call sites that are indirect (several candidates).
    indirect_fraction: float = 0.08
    #: Candidate callees at an indirect call site.
    indirect_fanout: int = 4
    #: Zipf exponent for callee popularity within a layer.
    zipf_callee: float = 0.85
    #: Zipf exponent for request-type (root) popularity.
    zipf_root: float = 0.7
    #: Callee-cluster width per call site, as a fraction of the layer.
    cluster_fraction: float = 0.25
    #: Fraction of conditional branches that are loop back-edges.
    loop_fraction: float = 0.20
    #: Fraction of conditional branches that strictly alternate.
    alternate_fraction: float = 0.03
    #: Taken-probability of strongly biased conditionals.  Biased
    #: outcomes are drawn i.i.d., so ``1 - hot_bias`` is an irreducible
    #: misprediction floor; 0.96 puts TAGE around the 3-6 direction
    #: mispredictions per kilo-instruction typical of server workloads.
    hot_bias: float = 0.97
    #: Fraction of biased conditionals that are strongly biased; the rest
    #: draw a bias uniformly from [0.3, 0.7] (data-dependent branches that
    #: no predictor can learn).
    hot_bias_fraction: float = 0.94
    #: Mean loop trip count for LOOP conditionals.
    mean_loop_trips: float = 6.0
    #: Scale applied to ``call_fraction`` inside kernel functions, which
    #: call sideways (higher-fid kernel helpers) rather than deeper.
    kernel_call_scale: float = 0.25
    #: Probability a call targets the *next* layer; deeper layers follow
    #: a geometric decay.  Calls never enter the kernel layer directly —
    #: kernel handlers are reached via TRAP blocks only.
    layer_skip_decay: float = 0.6
    #: RNG seed for program construction.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_layers < 3:
            raise ProgramError("need at least 3 layers (roots, app, kernel)")
        if self.n_functions < self.n_layers * 2:
            raise ProgramError("too few functions for the layer count")
        if self.n_roots < 1:
            raise ProgramError("need at least one root function")
        fractions = (self.call_fraction, self.jump_fraction,
                     self.trap_fraction, self.kernel_fraction,
                     self.indirect_fraction, self.loop_fraction,
                     self.alternate_fraction, self.hot_bias_fraction,
                     self.cluster_fraction)
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ProgramError("all fractions must lie in [0, 1]")
        if self.call_fraction + self.jump_fraction + self.trap_fraction >= 1:
            raise ProgramError("block-kind fractions must sum below 1")
        if not 0.5 <= self.hot_bias <= 1.0:
            raise ProgramError("hot_bias must lie in [0.5, 1.0]")


@dataclass
class GeneratedProgram:
    """A program plus the execution metadata the trace generator needs."""

    program: Program
    roots: List[int]
    root_weights: np.ndarray
    kernel_fids: List[int]
    params: GeneratorParams = field(repr=False, default=None)

    @property
    def nfunctions(self) -> int:
        return self.program.nfunctions


def _zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf(s) weights over n ranks."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


#: Tolerance ``Generator.choice`` allows on the sum of its probabilities.
_PROBABILITY_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _zipf_cdf(n: int, s: float) -> List[float]:
    """Zipf(s) over n ranks as the CDF ``Generator.choice`` samples.

    ``rng.choice(n, p=weights)`` normalises ``weights.cumsum()`` by its
    last element and binary-searches one ``rng.random()`` double per
    pick (``searchsorted(..., side="right")``).  ``bisect_right`` over
    this list draws exactly the same picks from the same stream.  The
    probability checks ``choice`` applies on every call run here, once
    per distribution.
    """
    weights = _zipf_weights(n, s)
    if (not np.isfinite(weights).all() or (weights < 0).any()
            or abs(weights.sum() - 1.0) > _PROBABILITY_ATOL):
        raise ProgramError(
            f"Zipf({s}) weights over {n} ranks are not a distribution")
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _scalar_draws(bit_generator: np.random.BitGenerator
                  ) -> Tuple[Callable[[], float], Callable[[int], int]]:
    """``rng.random()`` and ``int(rng.integers(0, n))``, drawn identically.

    A scalar ``Generator`` call spends most of its time in argument
    handling, ``integers`` several times more than ``random``.  These
    two call the bit generator through its ``ctypes`` interface, on the
    same live state, so they interleave exactly with the ``Generator``
    methods drawing from it.  ``random`` is ``next_double``.  For
    ``1 <= n < 2**32``, NumPy bounds with Lemire's multiply-and-reject
    over ``next_uint32`` (which hands out the two halves of one 64-bit
    output in turn), and a one-value range draws nothing.  The caller
    keeps *bit_generator* alive while it uses the returned functions.
    """
    interface = bit_generator.ctypes

    def holding_gil(function, restype):
        # The interface's prototypes release the GIL around each call.
        # A draw costs far less than that, and while other threads run
        # every release can hand the GIL away for a whole switch
        # interval, so call the same C function with the GIL held.
        address = ctypes.cast(function, ctypes.c_void_p).value
        prototype = ctypes.PYFUNCTYPE(restype, ctypes.c_void_p)
        return partial(prototype(address), interface.state)

    random = holding_gil(interface.next_double, ctypes.c_double)
    next_uint32 = holding_gil(interface.next_uint32, ctypes.c_uint32)

    def below(n: int) -> int:
        if n == 1:
            return 0
        product = next_uint32() * n
        leftover = product & 0xFFFFFFFF
        if leftover < n:
            threshold = (0x100000000 - n) % n
            while leftover < threshold:
                product = next_uint32() * n
                leftover = product & 0xFFFFFFFF
        return product >> 32

    return random, below


def _layer_sizes(params: GeneratorParams) -> List[int]:
    """Split functions across layers: roots, app layers, kernel."""
    kernel = max(2, int(round(params.n_functions * params.kernel_fraction)))
    roots = params.n_roots
    remaining = params.n_functions - kernel - roots
    mid_layers = params.n_layers - 2
    if remaining < mid_layers:
        raise ProgramError("not enough functions for the middle layers")
    # Middle layers grow with depth: utility/leaf code outnumbers
    # entry-point code in real stacks.
    raw = np.linspace(1.0, 2.0, mid_layers)
    sizes = np.maximum(1, np.floor(raw / raw.sum() * remaining)).astype(int)
    sizes[-1] += remaining - sizes.sum()
    return [roots] + [int(size) for size in sizes] + [kernel]


# Enum members bound once: reading a member off its class is a slow
# attribute lookup, and the hot loops would pay it per block.
_CALL, _TRAP, _JUMP, _COND = (BranchKind.CALL, BranchKind.TRAP,
                              BranchKind.JUMP, BranchKind.COND)
_RET, _TRAP_RET = BranchKind.RET, BranchKind.TRAP_RET
_BIASED, _LOOP, _ALTERNATE = (CondBehavior.BIASED, CondBehavior.LOOP,
                              CondBehavior.ALTERNATE)

#: A call or trap site awaiting its callees' final fids: ``(fid,
#: block index, ninstr, kind, callees)``, fids in generation order.
_CallSite = Tuple[int, int, int, BranchKind, Tuple[int, ...]]


class _FunctionDrafter:
    """Draws the functions of one program from one RNG stream.

    The order of draws *is* the output: every program, trace and cached
    result depends on it, and ``tests/test_program_fingerprints.py``
    pins it.  Per-program state lives here — bound RNG methods,
    constants hoisted from the params, the Zipf CDF of each cluster
    size, the interned immutable blocks and the drafted call sites — so
    nothing outlives one :func:`generate_program` call.

    Layers are contiguous fid ranges (``starts[layer]``, ``sizes[layer]``),
    so a callee pool is a ``(start, size)`` pair rather than a list.
    """

    def __init__(self, rng: np.random.Generator, params: GeneratorParams,
                 starts: List[int], sizes: List[int]) -> None:
        self.rng = rng
        self.random, self.below = _scalar_draws(rng.bit_generator)
        self.poisson = rng.poisson
        self.lognormal = rng.lognormal
        self.exponential = rng.exponential
        self.uniform = rng.uniform
        self.params = params
        self.starts = starts
        self.sizes = sizes
        self.kernel_start = starts[-1]
        self.kernel_end = starts[-1] + sizes[-1]
        self.last_app_layer = len(sizes) - 2
        self.log_median_blocks = math.log(params.median_blocks)
        # Block lengths are 2 + Poisson(extra_instrs) instructions,
        # clipped to 15 so the 5-bit BTB size field can encode them.
        self.extra_instrs = max(0.1, params.mean_block_instrs - 2)
        self.alternate_cut = params.loop_fraction + params.alternate_fraction
        self.cold_bias = 1 - params.hot_bias
        self._cdfs: Dict[int, List[float]] = {}
        self._blocks: Dict[tuple, BasicBlock] = {}
        self.sites: List[_CallSite] = []

    def block(self, ninstr: int, kind: BranchKind, taken_succ: int = -1,
              callees: Tuple[int, ...] = (),
              behavior: CondBehavior = _BIASED,
              param: float = 0.5) -> BasicBlock:
        """The (interned) block with these fields.

        Blocks are frozen values and most repeat — a short forward
        biased branch or a return of a given length recurs thousands of
        times — so one validated instance serves every equal block.
        """
        # The key is the block's fields, in declaration order.
        key = (ninstr, kind, taken_succ, callees, behavior, param)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = BasicBlock(*key)
        return block

    def function(self, fid: int, layer: int, is_kernel: bool
                 ) -> List[Optional[BasicBlock]]:
        """Draw one function's blocks.

        Returns the block list with ``None`` at every call and trap
        site.  Those sites go to :attr:`sites` with their callees still
        in generation fids; the caller builds them once the layout
        order is drawn.
        """
        params = self.params
        random = self.random
        poisson = self.poisson
        below = self.below
        extra_instrs = self.extra_instrs
        count = int(round(self.lognormal(self.log_median_blocks,
                                         params.sigma_blocks)))
        nblocks = min(max(count, 2), 64)
        call_cut = params.call_fraction
        if is_kernel:
            call_cut *= params.kernel_call_scale
        jump_cut = call_cut + params.jump_fraction
        trap_cut = jump_cut + params.trap_fraction
        # Kernel code never traps; everything else may enter the kernel.
        kernel_size = 0 if is_kernel else self.sizes[-1]

        blocks: List[Optional[BasicBlock]] = []
        sites = self.sites
        # Loop back-edges stop at the last call, trap or loop block.
        last_barrier = -1
        for idx in range(nblocks - 1):
            roll = random()
            ninstr = min(2 + poisson(extra_instrs), 15)
            if roll < call_cut:
                start, size = self._call_pool(layer, fid, is_kernel)
                if size:
                    cluster_base = below(size)
                    fanout = params.indirect_fanout \
                        if random() < params.indirect_fraction else 1
                    sites.append((fid, idx, ninstr, _CALL,
                                  self._callees(start, size, cluster_base,
                                                fanout)))
                    blocks.append(None)
                    last_barrier = idx
                    continue
            elif roll < jump_cut:
                target = min(nblocks - 1, idx + 1 + below(6))
                blocks.append(self.block(ninstr, _JUMP, target))
                continue
            elif roll < trap_cut and kernel_size:
                cluster_base = below(kernel_size)
                sites.append((fid, idx, ninstr, _TRAP,
                              self._callees(self.kernel_start, kernel_size,
                                            cluster_base, 1)))
                blocks.append(None)
                last_barrier = idx
                continue
            # The drawn ninstr is discarded: a conditional draws its own.
            block = self._cond(idx, nblocks, last_barrier)
            if block.behavior is _LOOP:
                last_barrier = idx
            blocks.append(block)
        terminator = _TRAP_RET if is_kernel else _RET
        blocks.append(self.block(min(2 + poisson(extra_instrs), 15),
                                 terminator))
        return blocks

    def _cond(self, idx: int, nblocks: int, last_barrier: int) -> BasicBlock:
        """A conditional block at position *idx* of *nblocks*.

        Loop back-edges never span a call or trap block: a loop body that
        re-descends a call subtree on every iteration would concentrate
        dynamic execution into a handful of leaf functions, which is
        neither realistic nor compatible with the paper's wide
        instruction working sets (loop bodies in server code are small;
        the deep call chains happen per-request, not per-iteration).
        Nor do they span another loop branch: nested same-function loops
        would multiply trip counts (6^k dynamic iterations for k nested
        levels) and trap the whole trace window inside one function.
        """
        params = self.params
        random = self.random
        ninstr = min(2 + self.poisson(self.extra_instrs), 15)
        roll = random()
        if roll < params.loop_fraction:
            # Largest backward span ending here, at most 4 blocks.
            span = min(4, idx - 1 - last_barrier)
            if span > 0:
                target = idx - 1 - self.below(span)
                trips = max(2.0, self.exponential(params.mean_loop_trips))
                return self.block(ninstr, _COND, target, (),
                                  _LOOP, float(trips))
        if roll < self.alternate_cut:
            target = min(nblocks - 1, idx + 1 + self.below(3))
            return self.block(ninstr, _COND, target, (), _ALTERNATE, 0.5)
        # Forward short-offset biased branch (if/else, error checks).
        target = min(nblocks - 1, idx + 1 + self.below(4))
        if random() < params.hot_bias_fraction:
            bias = params.hot_bias if random() < 0.5 else self.cold_bias
        else:
            bias = float(self.uniform(0.3, 0.7))
        return self.block(ninstr, _COND, target, (), _BIASED, bias)

    def _call_pool(self, layer: int, fid: int,
                   is_kernel: bool) -> Tuple[int, int]:
        """Candidate-callee pool ``(first fid, size)`` for one call site.

        Application calls target the next layer with probability
        ``layer_skip_decay``, skipping deeper with geometric decay, and
        never enter the kernel layer directly.  Kernel calls target
        higher-fid kernel helpers (acyclic sideways calls).
        """
        if is_kernel:
            return fid + 1, self.kernel_end - fid - 1
        last_app_layer = self.last_app_layer
        if layer >= last_app_layer:
            return 0, 0
        random = self.random
        decay = self.params.layer_skip_decay
        skip = 0
        while random() > decay and layer + 1 + skip < last_app_layer:
            skip += 1
        target = layer + 1 + skip
        return self.starts[target], self.sizes[target]

    def _callees(self, start: int, size: int, cluster_base: int,
                 count: int) -> Tuple[int, ...]:
        """Choose *count* callee fids from a pool, with clustering.

        Draws are ``rng.choice(cluster, size=count, p=zipf)``'s, from the
        cached CDF.  An indirect site may collapse to fewer distinct
        targets; order of first pick is kept.
        """
        cluster = max(1, int(size * self.params.cluster_fraction))
        cdf = self._cdfs.get(cluster)
        if cdf is None:
            cdf = self._cdfs[cluster] = _zipf_cdf(cluster,
                                                  self.params.zipf_callee)
        random = self.random
        picks = [start + (cluster_base + bisect_right(cdf, random())) % size
                 for _ in range(count)]
        return tuple(dict.fromkeys(picks))


def generate_program(params: GeneratorParams) -> GeneratedProgram:
    """Generate a layered synthetic server program.

    Deterministic for a given ``params`` (including its seed).
    """
    rng = np.random.default_rng(params.seed)
    sizes = _layer_sizes(params)
    # Dense fids, layer by layer: layer k holds fids
    # starts[k] .. starts[k] + sizes[k] - 1.
    starts = list(accumulate(sizes[:-1], initial=0))
    drafter = _FunctionDrafter(rng, params, starts, sizes)
    kernel_layer = len(sizes) - 1
    drafts = [
        drafter.function(fid, layer, layer == kernel_layer)
        for layer, (start, size) in enumerate(zip(starts, sizes))
        for fid in range(start, start + size)
    ]

    # Shuffle the *layout order* (not the fids) so that functions that call
    # each other are not artificially adjacent in the address space.
    order = rng.permutation(len(drafts)).tolist()
    relabel = [0] * len(order)
    for new_fid, fid in enumerate(order):
        relabel[fid] = new_fid
    for fid, idx, ninstr, kind, callees in drafter.sites:
        drafts[fid][idx] = drafter.block(
            ninstr, kind, callees=tuple(relabel[c] for c in callees))
    functions = [Function(fid=new_fid, blocks=drafts[fid],
                          is_kernel=fid >= drafter.kernel_start)
                 for new_fid, fid in enumerate(order)]

    program = Program(functions, seed=params.seed)
    roots = relabel[:sizes[0]]
    kernel_fids = relabel[drafter.kernel_start:]
    return GeneratedProgram(
        program=program,
        roots=roots,
        root_weights=_zipf_weights(len(roots), params.zipf_root),
        kernel_fids=kernel_fids,
        params=params,
    )
