"""Compiled graph programs: plan once, run hot.

The eager :class:`~repro.graph.executor.Executor` re-resolves every op,
rebuilds the value dict and re-derives costs from runtime shapes on
every forward pass — fine for one-shot accuracy sweeps, wasteful for
repeated inference.  :func:`compile_graph` performs all of that work
exactly once:

* **validation + scheduling** — structural checks and the topological
  order happen at compile time; the run loop never inspects the graph;
* **static shape inference** — every value's shape is derived from the
  declared input shapes (batch dimension substituted with
  ``batch_size``) through each op's registered shape rule;
* **value arena with liveness** — values live in an integer-slot list
  instead of a name dict; slots are reused once their last consumer has
  run, so peak live tensors track the graph's true working set;
* **op resolution + kernel baking** — each node's implementation is
  resolved to a prebound callable; PWL activations become
  :class:`PwlKernel` records carrying the memoised ``(m, q)``
  coefficient table (the same table
  :func:`repro.core.tables.build_tables` quantises for the hardware
  LTC), so an apply is one :func:`repro.core.pwl.apply_table` call —
  a segment lookup (a binary search below 4096 elements, a uint8
  comparison count from there up) plus one in-place
  ``m[r] * x + q[r]``, the same routine the eager interpreter runs;
* **static cost profile** — :attr:`Program.profile` is computed from
  the inferred shapes at compile time; pricing a model under the
  Fig. 6 cost model no longer needs a forward pass at all.

``Program.run(feeds)`` accepts any batch size (the plan is
batch-agnostic); ``run_many`` fuses a list of per-sample feeds into one
stacked pass.  Outputs are bitwise-identical to the eager interpreter —
the property suite enforces it op-by-op.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profile import ExecutionProfile

from ..analysis.diagnostics import Diagnostic, fail
from ..core.pwl import PiecewiseLinear, apply_table
from ..errors import GraphError
from ..functions import registry as fn_registry
from ..functions.softmax import SoftmaxApproximator, softmax_with_exp
from ..functions.softmax import softmax as exact_softmax
from ..obs.capture import get_capture
from .ir import Graph, Node
from .ops import CostRecord, OpImpl, Shape, get_op, infer_node_shapes

# The process-wide PWL input-histogram accumulator.  Kernels check one
# attribute (`enabled`, False by default) per call; when off, outputs
# and the run loop are untouched — the property suite and the graph-exec
# quick bench both enforce it.
_capture = get_capture()


# --------------------------------------------------------------------- #
# Cost profiles (shared by static compilation and runtime profiling)
# --------------------------------------------------------------------- #
@dataclass
class NodeProfile:
    """Cost record of one scheduled node."""

    name: str
    op_type: str
    cost: CostRecord


@dataclass
class GraphProfile:
    """Aggregated workload statistics of one inference.

    Produced two ways — statically at compile time from inferred shapes
    (:attr:`Program.profile`) or at runtime from concrete arrays
    (:meth:`Program.run_profiled` / ``Executor.profile``) — with
    node-for-node identical records when the batch sizes agree.
    """

    nodes: List[NodeProfile] = field(default_factory=list)

    @property
    def total_macs(self) -> int:
        """All multiply-accumulates (tensor-core work)."""
        return sum(p.cost.macs for p in self.nodes)

    @property
    def total_vector_ops(self) -> int:
        """All generic VPU operations."""
        return sum(p.cost.vector_ops for p in self.nodes)

    @property
    def total_act_elements(self) -> int:
        """All elements that pass through an activation function."""
        return sum(p.cost.act_elements for p in self.nodes)

    def act_elements_by_fn(self) -> Dict[str, int]:
        """Activation elements split per function name."""
        out: Dict[str, int] = {}
        for p in self.nodes:
            if p.cost.act_elements:
                out[p.cost.act_fn] = out.get(p.cost.act_fn, 0) + p.cost.act_elements
        return out

    def dominant_activation(self) -> str:
        """Most frequent activation by element count ('' if none)."""
        by_fn = self.act_elements_by_fn()
        if not by_fn:
            return ""
        return max(by_fn.items(), key=lambda kv: kv[1])[0]


# --------------------------------------------------------------------- #
# Baked PWL kernels
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PwlKernel:
    """A precompiled PWL activation: :func:`~repro.core.pwl.apply_table`
    on the baked table, plus histogram capture.

    ``breakpoints`` / ``m`` / ``q`` are the *memoised* coefficient
    arrays of the source :class:`PiecewiseLinear` — the identical table
    the hardware LTC stores after quantisation — so ``hw.sfu``
    reference checks and this kernel read the same memory.
    """

    breakpoints: np.ndarray
    m: np.ndarray
    q: np.ndarray
    source: PiecewiseLinear
    #: Activation-function name for observability (histogram capture).
    label: str = ""

    @classmethod
    def from_pwl(cls, pwl: PiecewiseLinear, label: str = "") -> "PwlKernel":
        m, q = pwl.coefficients()
        return cls(breakpoints=pwl.breakpoints, m=m, q=q, source=pwl,
                   label=label)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y, r = apply_table(self.breakpoints, self.m, self.q, x)
        if _capture.enabled:
            # The segment indices already in hand ARE the input
            # histogram — capture only reads them, never the output.
            _capture.record(self.label or "pwl", self.breakpoints, r)
        return y


@dataclass(frozen=True)
class SoftmaxPwlKernel:
    """Softmax with a baked PWL ``exp`` table (max-subtract decomposition).

    Runs :func:`~repro.functions.softmax.softmax_with_exp` — the body
    :class:`~repro.functions.softmax.SoftmaxApproximator` runs — with
    ``exp`` as :func:`~repro.core.pwl.apply_table` on the baked table
    plus histogram capture.
    """

    breakpoints: np.ndarray
    m: np.ndarray
    q: np.ndarray
    clip_lo: float
    axis: int
    source: PiecewiseLinear
    #: Observability label of the inner exp table.
    label: str = "softmax.exp"

    @classmethod
    def from_approximator(cls, approx: SoftmaxApproximator,
                          axis: int) -> "SoftmaxPwlKernel":
        pwl = approx._exp_fn
        assert isinstance(pwl, PiecewiseLinear)
        m, q = pwl.coefficients()
        return cls(breakpoints=pwl.breakpoints, m=m, q=q,
                   clip_lo=approx._clip_lo, axis=int(axis), source=pwl)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return softmax_with_exp(x, self._exp, self.axis, self.clip_lo)

    def _exp(self, shifted: np.ndarray) -> np.ndarray:
        e, r = apply_table(self.breakpoints, self.m, self.q, shifted)
        if _capture.enabled:
            _capture.record(self.label, self.breakpoints, r)
        return e


class FusedKernel:
    """A baked chain of step callables: one arena write for the whole
    matmul/conv → bias → normalisation → PWL-activation run.

    Each step closure takes ``(cur, inputs)`` — the previous step's
    result plus the node's full runtime input list — with constants
    prebound at bake time.  Step bodies are the *identical* numpy
    expressions of the ops they absorb (PWL steps are the same baked
    kernels an unfused node runs), so fusion never changes a single
    output bit.
    """

    __slots__ = ("steps", "label")

    def __init__(self, steps: List[Callable], label: str = "") -> None:
        self.steps = steps
        self.label = label

    def __call__(self, inputs: List[np.ndarray]) -> np.ndarray:
        x = self.steps[0](None, inputs)
        for fn in self.steps[1:]:
            x = fn(x, inputs)
        return x


def _bake_fused_step(op_name: str, attrs: Dict, names: List[str],
                     indices: List[int], consts: Dict[str, np.ndarray],
                     first: bool) -> Callable:
    """One ``(cur, inputs) -> array`` closure for a fused step.

    ``names``/``indices`` describe the step's slice of the fused node's
    input list (for the head step that includes the dynamic input(s);
    epilogue steps receive the chain value as ``cur``).
    """
    have_consts = all(v in consts for v in names[1:]) if first \
        else all(v in consts for v in names)
    if not first and have_consts:
        cvals = [consts[v] for v in names]
        if op_name == "activation":
            kern = _activation_kernel(
                Node(op_type="activation", inputs=["x"], outputs=["y"],
                     attrs=attrs))
            return lambda cur, inputs: kern(cur)
        if op_name == "softmax":
            kern = _softmax_kernel(
                Node(op_type="softmax", inputs=["x"], outputs=["y"],
                     attrs=attrs))
            return lambda cur, inputs: kern(cur)
        if op_name == "batchnorm":
            scale, shift = cvals

            def bn(cur, inputs):
                shape = [1] * cur.ndim
                shape[1] = -1
                return cur * scale.reshape(shape) + shift.reshape(shape)
            return bn
        if op_name == "layernorm":
            gamma, beta = cvals
            eps = float(attrs.get("eps", 1e-5))

            def ln(cur, inputs):
                mean = cur.mean(axis=-1, keepdims=True)
                var = cur.var(axis=-1, keepdims=True)
                return (cur - mean) / np.sqrt(var + eps) * gamma + beta
            return ln
        if op_name == "add":
            (c,) = cvals
            return lambda cur, inputs: cur + c
        if op_name == "mul":
            (c,) = cvals
            return lambda cur, inputs: cur * c
        if op_name == "reshape":
            shape = attrs["shape"]
            return lambda cur, inputs: cur.reshape(shape)
        if op_name == "transpose":
            perm = attrs["perm"]
            return lambda cur, inputs: np.transpose(cur, perm)
        if op_name == "flatten":
            return lambda cur, inputs: cur.reshape(cur.shape[0], -1)
    if first:
        if op_name == "linear" and have_consts and len(names) >= 2:
            i0 = indices[0]
            w = consts[names[1]]
            if len(names) > 2:
                b = consts[names[2]]
                return lambda cur, inputs: (inputs[i0] @ w) + b
            return lambda cur, inputs: inputs[i0] @ w
        if op_name == "matmul" and len(names) == 2:
            i0, i1 = indices
            return lambda cur, inputs: inputs[i0] @ inputs[i1]
        if op_name == "conv2d" and have_consts:
            from .ops import _exec_conv2d
            i0 = indices[0]
            weights = [consts[v] for v in names[1:]]
            return lambda cur, inputs: _exec_conv2d(
                [inputs[i0]] + weights, attrs)[0]
    # Generic fallback: the registered execute with the step's inputs
    # gathered from the fused node's runtime input list.
    op = get_op(op_name)
    idx = list(indices)

    def generic(cur, inputs):
        step_inputs = [inputs[j] for j in idx]
        if cur is not None:
            step_inputs = [cur] + step_inputs
        return op.execute(step_inputs, attrs)[0]
    return generic


def _fused_kernel(node: Node, consts: Dict[str, np.ndarray]
                  ) -> FusedKernel:
    """Bake one fused node into a :class:`FusedKernel`."""
    steps: List[Callable] = []
    pos = 0
    for i, step in enumerate(node.attrs["steps"]):
        n = int(step["n_inputs"])
        names = list(node.inputs[pos:pos + n])
        indices = list(range(pos, pos + n))
        pos += n
        steps.append(_bake_fused_step(step["op"], step["attrs"], names,
                                      indices, consts, first=(i == 0)))
    return FusedKernel(steps, label=str(node.attrs.get("label", "")))


# --------------------------------------------------------------------- #
# Kernel compilation (per-node specialisation)
# --------------------------------------------------------------------- #
def _activation_kernel(node: Node) -> Optional[Callable]:
    impl = node.attrs.get("impl", "exact")
    if impl == "exact":
        return fn_registry.get(node.attrs["fn"])
    if impl == "pwl":
        approx = node.attrs.get("approximator")
        if approx is None:
            fail("RPR120",
                 "pwl activation node has no approximator attached",
                 node=node.name)
        if isinstance(approx, PiecewiseLinear):
            return PwlKernel.from_pwl(approx,
                                      label=str(node.attrs.get("fn", "")))
        return lambda x: np.asarray(approx(x), dtype=np.float64)
    fail("RPR122", f"unknown activation impl {impl!r}", node=node.name)


def _softmax_kernel(node: Node) -> Optional[Callable]:
    axis = int(node.attrs.get("axis", -1))
    impl = node.attrs.get("impl", "exact")
    if impl == "exact":
        return lambda x: exact_softmax(x, axis=axis)
    if impl == "pwl":
        approx = node.attrs.get("approximator")
        if approx is None:
            fail("RPR120",
                 "pwl softmax node has no approximator attached",
                 node=node.name)
        if isinstance(approx, SoftmaxApproximator) and \
                isinstance(approx._exp_fn, PiecewiseLinear):
            return SoftmaxPwlKernel.from_approximator(approx, axis)
        return lambda x: np.asarray(approx(x, axis=axis), dtype=np.float64)
    fail("RPR122", f"unknown softmax impl {impl!r}", node=node.name)


def _linear_kernel(node: Node, consts: Dict[str, np.ndarray]
                   ) -> Optional[Callable]:
    if any(v not in consts for v in node.inputs[1:]):
        return None
    w = consts[node.inputs[1]]
    if len(node.inputs) > 2:
        b = consts[node.inputs[2]]
        return lambda x: (x @ w) + b
    return lambda x: x @ w


def _conv2d_kernel(node: Node, consts: Dict[str, np.ndarray]
                   ) -> Optional[Callable]:
    if any(v not in consts for v in node.inputs[1:]):
        return None
    from .ops import _exec_conv2d
    weights = [consts[v] for v in node.inputs[1:]]
    attrs = node.attrs

    def kernel(x: np.ndarray) -> np.ndarray:
        return _exec_conv2d([x] + weights, attrs)[0]
    return kernel


def _batchnorm_kernel(node: Node, consts: Dict[str, np.ndarray],
                      in_shape: Optional[Shape]) -> Optional[Callable]:
    if in_shape is None or any(v not in consts for v in node.inputs[1:]):
        return None
    shape = [1] * len(in_shape)
    shape[1] = -1
    scale = consts[node.inputs[1]].reshape(shape)
    shift = consts[node.inputs[2]].reshape(shape)
    return lambda x: x * scale + shift


def _layernorm_kernel(node: Node, consts: Dict[str, np.ndarray]
                      ) -> Optional[Callable]:
    if any(v not in consts for v in node.inputs[1:]):
        return None
    gamma = consts[node.inputs[1]]
    beta = consts[node.inputs[2]]
    eps = float(node.attrs.get("eps", 1e-5))

    def kernel(x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + eps) * gamma + beta
    return kernel


def _embedding_kernel(node: Node, consts: Dict[str, np.ndarray]
                      ) -> Optional[Callable]:
    if node.inputs[1] not in consts:
        return None
    table = consts[node.inputs[1]]
    return lambda ids: table[ids.astype(np.int64)]


def _compile_kernel(node: Node, consts: Dict[str, np.ndarray],
                    in_shapes: Optional[List[Shape]]
                    ) -> Tuple[Optional[Callable], Optional[Callable]]:
    """Specialised ``(kernel1, kernel2)`` callables for one node.

    ``kernel1`` takes the node's first input and returns its single
    output (weights / attributes prebound); ``kernel2`` does the same
    for two dynamic inputs.  ``(None, None)`` means the node runs
    through the generic ``execute(inputs, attrs)`` path.
    """
    op = node.op_type
    attrs = node.attrs
    first_shape = in_shapes[0] if in_shapes else None
    if op == "activation":
        return _activation_kernel(node), None
    if op == "softmax":
        return _softmax_kernel(node), None
    if op == "linear":
        return _linear_kernel(node, consts), None
    if op == "conv2d":
        return _conv2d_kernel(node, consts), None
    if op == "batchnorm":
        return _batchnorm_kernel(node, consts, first_shape), None
    if op == "layernorm":
        return _layernorm_kernel(node, consts), None
    if op == "embedding":
        return _embedding_kernel(node, consts), None
    if op in ("add", "mul"):
        second = consts.get(node.inputs[1])
        if second is not None:
            if op == "add":
                return (lambda x: x + second), None
            return (lambda x: x * second), None
        if op == "add":
            return None, (lambda a, b: a + b)
        return None, (lambda a, b: a * b)
    if op == "matmul":
        return None, (lambda a, b: a @ b)
    if op == "reshape":
        shape = attrs["shape"]
        return (lambda x: x.reshape(shape)), None
    if op == "transpose":
        perm = attrs["perm"]
        return (lambda x: np.transpose(x, perm)), None
    if op == "flatten":
        return (lambda x: x.reshape(x.shape[0], -1)), None
    return None, None


# --------------------------------------------------------------------- #
# Compiled nodes and the program
# --------------------------------------------------------------------- #
class CompiledNode:
    """One scheduled step: resolved impl + arena slots + baked kernel."""

    __slots__ = ("name", "op_type", "node", "op", "attrs", "in_slots",
                 "out_slots", "n_out", "frees", "kernel1", "kernel2",
                 "kernel_n")

    def __init__(self, node: Node, op: OpImpl,
                 in_slots: Tuple[int, ...], out_slots: Tuple[int, ...],
                 kernel1: Optional[Callable],
                 kernel2: Optional[Callable],
                 kernel_n: Optional[Callable] = None) -> None:
        self.name = node.name
        self.op_type = node.op_type
        self.node = node
        self.op = op
        self.attrs = node.attrs
        self.in_slots = in_slots
        self.out_slots = out_slots
        self.n_out = len(out_slots)
        self.frees: Tuple[int, ...] = ()
        self.kernel1 = kernel1
        self.kernel2 = kernel2
        #: Multi-input fused kernel: takes the gathered input list.
        self.kernel_n = kernel_n


class Program:
    """A compiled, immutable execution plan for one :class:`Graph`.

    Build with :func:`compile_graph`; run with :meth:`run` (any batch
    size).  :attr:`profile` is the *static* cost profile derived from
    the compile-time shapes — no forward pass involved.
    """

    def __init__(self, graph: Graph, batch_size: int,
                 nodes: List[CompiledNode], n_slots: int,
                 template: List[Optional[np.ndarray]],
                 input_plan: List[Tuple[str, int, Tuple[int, ...]]],
                 output_plan: List[Tuple[str, int]],
                 shapes: Optional[Dict[str, Shape]],
                 static_profile: Optional[GraphProfile],
                 static_error: Optional[GraphError],
                 slot_map: Optional[Dict[str, int]] = None,
                 pass_reports: Optional[List] = None,
                 stage_ranges: Optional[List[Tuple[int, int]]] = None,
                 workers: int = 1) -> None:
        self.graph = graph
        self.batch_size = batch_size
        self.nodes = nodes
        self._n_slots = n_slots
        self._template = template
        self._input_plan = input_plan
        self._output_plan = output_plan
        self._shapes = shapes
        self._static_profile = static_profile
        self._static_error = static_error
        #: Full value-name -> arena-slot assignment (the arena-liveness
        #: verifier replays the plan from it).
        self._slot_map: Dict[str, int] = dict(slot_map or {})
        #: Per-pass static-profile deltas from the optimizing pipeline
        #: (empty when compiled with ``optimize=False``).
        self.pass_reports: List = list(pass_reports or [])
        #: Region-scheduler stages as contiguous ``[start, end)`` index
        #: ranges over ``nodes`` (None without the scheduling pass).
        self._stage_ranges = stage_ranges
        #: Worker-thread count for the staged run path (1 = sequential).
        self._workers = max(1, int(workers))
        #: Non-fatal verifier findings collected at compile time
        #: (errors raise instead; see ``compile_graph``).
        self.diagnostics: List[Diagnostic] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> List[Node]:
        """The scheduled IR nodes (topological order)."""
        return [cn.node for cn in self.nodes]

    @property
    def n_slots(self) -> int:
        """Arena size — peak simultaneously-live values."""
        return self._n_slots

    @property
    def profile(self) -> GraphProfile:
        """Static cost profile at the compiled batch size (no execution)."""
        if self._static_profile is None:
            raise self._static_error or GraphError(
                f"graph {self.graph.name!r} has no static profile")
        return self._static_profile

    def value_shape(self, name: str) -> Shape:
        """Compile-time shape of one value (at the compiled batch size)."""
        if self._shapes is None:
            raise self._static_error or GraphError(
                f"graph {self.graph.name!r} has no static shapes")
        try:
            return self._shapes[name]
        except KeyError:
            fail("RPR205", f"unknown value {name!r}",
                 graph=self.graph.name)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _load_feeds(self, feeds: Dict[str, np.ndarray]
                    ) -> List[Optional[np.ndarray]]:
        values = self._template.copy()
        batch: Optional[int] = None
        for name, slot, shape in self._input_plan:
            if name not in feeds:
                fail("RPR201", f"missing graph input {name!r}",
                     graph=self.graph.name)
            arr = np.asarray(feeds[name])
            if shape and tuple(arr.shape[1:]) != tuple(shape[1:]):
                fail("RPR202",
                     f"input {name!r} shape {arr.shape} incompatible "
                     f"with {shape}",
                     graph=self.graph.name)
            if shape and not shape[0]:  # leading dim free = stacked batch
                n = arr.shape[0] if arr.ndim else 0
                if batch is None or batch == 1:
                    batch = n
                elif n != batch and n != 1:
                    # Size-1 leading dims broadcast (the eager numpy
                    # semantics); anything else is a genuine mismatch.
                    fail("RPR203",
                         f"batch-dim mismatch on graph inputs: {name!r} "
                         f"carries {n} samples, earlier inputs {batch}",
                         graph=self.graph.name)
            values[slot] = arr
        return values

    def run(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the plan; returns the graph outputs by name."""
        values = self._load_feeds(feeds)
        if self._workers > 1 and self._stage_ranges:
            self._run_staged(values)
            return {name: values[slot] for name, slot in self._output_plan}
        for cn in self.nodes:
            if cn.kernel1 is not None:
                values[cn.out_slots[0]] = cn.kernel1(values[cn.in_slots[0]])
            elif cn.kernel2 is not None:
                values[cn.out_slots[0]] = cn.kernel2(values[cn.in_slots[0]],
                                                     values[cn.in_slots[1]])
            elif cn.kernel_n is not None:
                values[cn.out_slots[0]] = \
                    cn.kernel_n([values[s] for s in cn.in_slots])
            else:
                outs = cn.op.execute([values[s] for s in cn.in_slots],
                                     cn.attrs)
                if len(outs) != cn.n_out:
                    fail("RPR204",
                         f"node {cn.name} produced {len(outs)} outputs, "
                         f"declared {cn.n_out}",
                         node=cn.name, graph=self.graph.name)
                for slot, arr in zip(cn.out_slots, outs):
                    values[slot] = arr
            for slot in cn.frees:
                values[slot] = None
        return {name: values[slot] for name, slot in self._output_plan}

    def _exec_node(self, cn: CompiledNode,
                   values: List[Optional[np.ndarray]]) -> None:
        """One record of the staged path (frees happen at the barrier)."""
        if cn.kernel1 is not None:
            values[cn.out_slots[0]] = cn.kernel1(values[cn.in_slots[0]])
        elif cn.kernel2 is not None:
            values[cn.out_slots[0]] = cn.kernel2(values[cn.in_slots[0]],
                                                 values[cn.in_slots[1]])
        elif cn.kernel_n is not None:
            values[cn.out_slots[0]] = \
                cn.kernel_n([values[s] for s in cn.in_slots])
        else:
            outs = cn.op.execute([values[s] for s in cn.in_slots], cn.attrs)
            if len(outs) != cn.n_out:
                fail("RPR204",
                     f"node {cn.name} produced {len(outs)} outputs, "
                     f"declared {cn.n_out}",
                     node=cn.name, graph=self.graph.name)
            for slot, arr in zip(cn.out_slots, outs):
                values[slot] = arr

    def _run_staged(self, values: List[Optional[np.ndarray]]) -> None:
        """Execute stage by stage on the shared worker pool.

        Records within one stage are data-independent and the staged
        arena plan gives them disjoint slots (frees deferred to the
        stage barrier), so concurrent execution is race-free and the
        outputs are bitwise-identical to the sequential walk — each
        record writes only its own slots, in whatever order the workers
        finish.
        """
        pool = _shared_pool(self._workers)
        nodes = self.nodes
        for start, end in self._stage_ranges:
            if end - start == 1:
                self._exec_node(nodes[start], values)
            else:
                futures = [pool.submit(self._exec_node, cn, values)
                           for cn in nodes[start:end]]
                for future in futures:
                    future.result()
            for cn in nodes[start:end]:
                for slot in cn.frees:
                    values[slot] = None

    def run_many(self, feeds_seq: Sequence[Dict[str, np.ndarray]]
                 ) -> List[Dict[str, np.ndarray]]:
        """Fuse per-sample feeds into one stacked pass and split back.

        Each element of ``feeds_seq`` is a normal ``run`` feed dict
        (leading batch dimension included); the inputs are concatenated
        along the batch axis, executed once, and the outputs are split
        back into one dict per caller.
        """
        if not feeds_seq:
            return []
        if len(feeds_seq) == 1:
            return [self.run(feeds_seq[0])]
        # The shape plan is hoisted out of the per-sample loop: one
        # (name, trailing-dims) pair per graph input, computed once —
        # the loop below only compares against it.  Validate per
        # request: every input of one request must carry the same
        # sample count, or the stacked outputs could not be attributed
        # back to their requests; trailing dims must match the plan, or
        # the stack itself would be ragged.
        shape_plan: List[Tuple[str, Optional[Tuple[int, ...]]]] = \
            [(name, tuple(shape[1:]) if shape else None)
             for name, _, shape in self._input_plan]
        counts: List[int] = []
        arrays: Dict[str, List[np.ndarray]] = \
            {name: [] for name, _ in shape_plan}
        for i, feeds in enumerate(feeds_seq):
            n_samples: Optional[int] = None
            for name, trail in shape_plan:
                if name not in feeds:
                    fail("RPR201",
                         f"request {i}: missing graph input {name!r}",
                         graph=self.graph.name)
                arr = np.asarray(feeds[name])
                if trail is not None and tuple(arr.shape[1:]) != trail:
                    fail("RPR202",
                         f"request {i}: input {name!r} shape {arr.shape} "
                         f"incompatible with per-sample shape {trail}",
                         graph=self.graph.name)
                n = arr.shape[0] if arr.ndim else 0
                if n_samples is None:
                    n_samples = n
                elif n != n_samples:
                    fail("RPR203",
                         f"batch-dim mismatch within request {i}: input "
                         f"{name!r} carries {n} samples, earlier inputs "
                         f"{n_samples}",
                         graph=self.graph.name)
                arrays[name].append(arr)
            counts.append(n_samples or 0)
        stacked = {name: np.concatenate(parts, axis=0)
                   for name, parts in arrays.items()}
        bounds = np.cumsum(counts)[:-1]
        out = self.run(stacked)
        split = {name: np.split(arr, bounds, axis=0)
                 for name, arr in out.items()}
        return [{name: split[name][i] for name in out}
                for i in range(len(feeds_seq))]

    def run_profiled(self, feeds: Dict[str, np.ndarray]
                     ) -> Tuple[Dict[str, np.ndarray], GraphProfile]:
        """Execute and cost every node from *runtime* shapes.

        The generic (unspecialised) path runs for every node so the
        cost model sees the full input list, exactly like the eager
        profiler; use :attr:`profile` for the zero-execution variant.
        """
        values = self._load_feeds(feeds)
        prof = GraphProfile()
        for cn in self.nodes:
            inputs = [values[s] for s in cn.in_slots]
            outs = cn.op.execute(inputs, cn.attrs)
            if len(outs) != cn.n_out:
                fail("RPR204",
                     f"node {cn.name} produced {len(outs)} outputs, "
                     f"declared {cn.n_out}",
                     node=cn.name, graph=self.graph.name)
            for slot, arr in zip(cn.out_slots, outs):
                values[slot] = arr
            cost = cn.op.cost([tuple(np.shape(v)) for v in inputs],
                              [tuple(np.shape(o)) for o in outs],
                              cn.attrs)
            prof.nodes.append(NodeProfile(name=cn.name, op_type=cn.op_type,
                                          cost=cost))
            for slot in cn.frees:
                values[slot] = None
        outputs = {name: values[slot] for name, slot in self._output_plan}
        return outputs, prof

    def run_timed(self, feeds: Dict[str, np.ndarray], repeats: int = 1
                  ) -> Tuple[Dict[str, np.ndarray], "ExecutionProfile"]:
        """Execute with an opt-in per-kernel timer.

        Returns the (last run's) outputs plus a runtime
        :class:`~repro.obs.profile.ExecutionProfile` — node-for-node
        aligned with the static :attr:`profile`, which is what
        :func:`repro.obs.profile.compare_profiles` consumes.  The exact
        same kernels as :meth:`run` execute (outputs are bitwise
        identical); the only addition is two clock reads per node, so
        ``repeats > 1`` is the cheap way to average out timer noise.
        """
        from ..obs.clock import tick
        from ..obs.profile import ExecutionProfile, KernelTiming

        timings = [KernelTiming(name=cn.name, op_type=cn.op_type)
                   for cn in self.nodes]
        outputs: Dict[str, np.ndarray] = {}
        for _ in range(max(1, int(repeats))):
            values = self._load_feeds(feeds)
            for cn, timing in zip(self.nodes, timings):
                t0 = tick()
                if cn.kernel1 is not None:
                    values[cn.out_slots[0]] = \
                        cn.kernel1(values[cn.in_slots[0]])
                elif cn.kernel2 is not None:
                    values[cn.out_slots[0]] = \
                        cn.kernel2(values[cn.in_slots[0]],
                                   values[cn.in_slots[1]])
                elif cn.kernel_n is not None:
                    values[cn.out_slots[0]] = \
                        cn.kernel_n([values[s] for s in cn.in_slots])
                else:
                    outs = cn.op.execute([values[s] for s in cn.in_slots],
                                         cn.attrs)
                    if len(outs) != cn.n_out:
                        fail("RPR204",
                             f"node {cn.name} produced {len(outs)} outputs, "
                             f"declared {cn.n_out}",
                             node=cn.name, graph=self.graph.name)
                    for slot, arr in zip(cn.out_slots, outs):
                        values[slot] = arr
                timing.total_s += tick() - t0
                timing.calls += 1
                for slot in cn.frees:
                    values[slot] = None
            outputs = {name: values[slot]
                       for name, slot in self._output_plan}
        return outputs, ExecutionProfile(nodes=timings)


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #
def _static_shapes(graph: Graph, order: List[Node],
                   batch_size: int) -> Dict[str, Shape]:
    """Shape of every value at ``batch_size`` samples, or raise."""
    shapes: Dict[str, Shape] = {}
    for name, shape in graph.inputs:
        if not shape:
            raise GraphError(
                f"graph input {name!r} declares no shape; static "
                f"compilation needs one (batch dim may be 0 = any)")
        dims = tuple(int(d) for d in shape)
        shapes[name] = (batch_size if dims[0] == 0 else dims[0],) + dims[1:]
    for name, arr in graph.initializers.items():
        shapes[name] = tuple(arr.shape)
    for node in order:
        in_shapes = [shapes[v] for v in node.inputs]
        out_shapes = infer_node_shapes(node.op_type, in_shapes, node.attrs)
        if len(out_shapes) != len(node.outputs):
            raise GraphError(
                f"node {node.name} declares {len(node.outputs)} outputs "
                f"but its shape rule produced {len(out_shapes)}")
        for value, shape in zip(node.outputs, out_shapes):
            shapes[value] = shape
    return shapes


def _static_profile(order: List[Node],
                    shapes: Dict[str, Shape]) -> GraphProfile:
    prof = GraphProfile()
    for node in order:
        op = get_op(node.op_type)
        cost = op.cost([shapes[v] for v in node.inputs],
                       [shapes[v] for v in node.outputs],
                       node.attrs)
        prof.nodes.append(NodeProfile(name=node.name, op_type=node.op_type,
                                      cost=cost))
    return prof


def _default_workers() -> int:
    """Worker-thread count from ``REPRO_EXEC_WORKERS`` (default 1)."""
    raw = os.environ.get("REPRO_EXEC_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


#: One process-wide pool shared by every staged program (grown on
#: demand, never shrunk): region stages from different programs queue
#: onto the same workers instead of each program spawning its own.
_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE = 0


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE < workers:
            _POOL = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="repro-exec")
            _POOL_SIZE = workers
        return _POOL


def compile_graph(graph: Graph, batch_size: int = 1,
                  verify: bool = True, optimize: bool = False,
                  passes: Optional[Sequence[str]] = None,
                  workers: Optional[int] = None) -> Program:
    """Compile ``graph`` into a :class:`Program` (see module docstring).

    ``batch_size`` only parameterises the *static* shapes and cost
    profile; the returned plan executes feeds of any batch size.
    Raises :class:`~repro.errors.GraphError` on structural problems
    (cycles, missing values, duplicate producers) at compile time.

    With ``verify`` on (the default) the registered static checks run
    over the graph before planning and over the finished program after:
    error-severity findings raise a coded
    :class:`~repro.analysis.diagnostics.DiagnosticError`, warnings are
    collected on :attr:`Program.diagnostics`.  ``verify=False`` skips
    the analysis entirely (the structural ``validate()`` still runs).

    ``optimize=True`` runs the :mod:`repro.graph.opt` pass pipeline
    between scheduling and kernel baking — constant folding, dead-node
    elimination, kernel fusion and region scheduling by default;
    ``passes`` selects/orders a subset by name.  Every pass preserves
    bitwise output equality with the eager interpreter; per-pass static
    cost deltas land on :attr:`Program.pass_reports`.  Optimization is
    skipped (reported via ``pass_reports`` staying empty) when static
    shape inference fails — the passes key their safety analysis off
    the static shapes.  ``workers`` (default: ``REPRO_EXEC_WORKERS``,
    else 1) enables the staged parallel run path when the region
    scheduler produced stages.
    """
    if batch_size < 1:
        fail("RPR207", f"batch_size must be >= 1, got {batch_size}",
             graph=graph.name)
    graph.validate()
    order = graph.topological_order()

    diagnostics: List[Diagnostic] = []
    if verify:
        # Deferred import: the checks read the op registry from this
        # package, so they cannot be imported at module load time.
        from ..analysis.context import AnalysisContext
        from ..analysis.verify import raise_on_errors, run_checks

        diagnostics = run_checks(
            AnalysisContext(graph, batch_size=batch_size), scope="graph")
        raise_on_errors(diagnostics)

    # Static shapes + profile.  Failure (an op without a shape rule, an
    # input without a declared shape) is recorded, not raised: the plan
    # still executes, only `Program.profile` becomes unavailable.
    shapes: Optional[Dict[str, Shape]] = None
    profile: Optional[GraphProfile] = None
    static_error: Optional[GraphError] = None
    try:
        shapes = _static_shapes(graph, order, batch_size)
        profile = _static_profile(order, shapes)
    except GraphError as exc:
        static_error = exc
    except Exception as exc:
        # Shape rules unpack fixed ranks and user-registered rules may
        # raise anything; no static-inference failure is allowed to
        # abort compilation (the plan still executes — the runtime will
        # surface the real problem, exactly as the eager path did).
        shapes = None
        profile = None
        static_error = GraphError(
            f"static shape inference failed for graph "
            f"{graph.name!r}: {exc!r}")

    # Optimizing pipeline: plan→plan rewrites on a private clone, run
    # after graph-scope verification/scheduling and before the arena
    # and kernel baking below consume the (possibly rewritten) order.
    pass_reports: List = []
    stage_ranges: Optional[List[Tuple[int, int]]] = None
    if (optimize or passes is not None) and shapes is not None:
        from .opt import Plan, build_pipeline

        work = graph.clone()
        plan = Plan(graph=work, order=work.topological_order(),
                    batch_size=batch_size, shapes=dict(shapes))
        plan, pass_reports = build_pipeline(passes).run(plan)
        graph = plan.graph
        order = plan.order
        shapes = plan.shapes
        if plan.stages:
            stage_ranges = [(stage[0], stage[-1] + 1)
                            for stage in plan.stages if stage]
        try:
            profile = (_static_profile(order, shapes)
                       if shapes is not None else None)
        except Exception as exc:
            profile = None
            static_error = GraphError(
                f"static profiling failed after optimization for graph "
                f"{graph.name!r}: {exc!r}")

    # Liveness: last scheduled consumer of every value.
    last_use: Dict[str, int] = {}
    for i, node in enumerate(order):
        for value in node.inputs:
            last_use[value] = i
    persistent = set(graph.initializers) | set(graph.outputs)

    # Stage-aware liveness: with a region schedule, frees defer to the
    # stage barrier (the stage's last record) and never feed the free
    # list mid-stage, so concurrently executing records within one
    # stage touch disjoint slots — no write-is-the-free aliasing across
    # parallel lanes.
    stage_end: Dict[int, int] = {}
    if stage_ranges:
        for start, end in stage_ranges:
            for i in range(start, end):
                stage_end[i] = end - 1

    # Arena assignment with slot reuse.
    slots: Dict[str, int] = {}
    free_slots: List[int] = []
    n_slots = 0

    def alloc(name: str) -> int:
        nonlocal n_slots
        if name in slots:
            return slots[name]
        slot = free_slots.pop() if free_slots else n_slots
        if slot == n_slots:
            n_slots += 1
        slots[name] = slot
        return slot

    input_plan: List[Tuple[str, int, Tuple[int, ...]]] = []
    for name, shape in graph.inputs:
        if name in graph.initializers:
            continue  # eager semantics: the initializer value wins
        input_plan.append((name, alloc(name), tuple(shape)))
    for name in graph.initializers:
        alloc(name)

    consts = graph.initializers
    compiled: List[CompiledNode] = []
    pending_frees: List[int] = []
    for i, node in enumerate(order):
        op = get_op(node.op_type)
        in_slots = tuple(slots[v] for v in node.inputs)
        in_shapes = ([shapes[v] for v in node.inputs]
                     if shapes is not None else None)
        staged = i in stage_end
        # Free dead inputs *before* allocating outputs so an output may
        # reuse the slot of an input dying at this very node — but only
        # via the free list, never aliasing a slot this node still reads.
        # In staged mode the slots stay pending until the barrier.
        dead = [v for v in set(node.inputs)
                if last_use.get(v) == i and v not in persistent
                and v not in node.outputs]
        if not staged:
            for v in dead:
                free_slots.append(slots[v])
        out_slots = tuple(alloc(v) for v in node.outputs)
        # Specialised kernels assume single-output nodes (and two live
        # inputs for kernel2); anything else runs the generic path,
        # which arity-checks what execute() actually returned.
        kernel_n = None
        if node.op_type == "fused":
            kernel1, kernel2 = None, None
            kernel_n = _fused_kernel(node, consts)
        elif len(node.outputs) == 1:
            kernel1, kernel2 = _compile_kernel(node, consts, in_shapes)
        else:
            kernel1, kernel2 = None, None
        if kernel2 is not None and len(node.inputs) != 2:
            kernel1, kernel2 = None, None
        cn = CompiledNode(node, op, in_slots, out_slots, kernel1, kernel2,
                          kernel_n)
        compiled.append(cn)
        if staged:
            pending_frees.extend(slots[v] for v in dead)
            for v in node.outputs:
                if v not in last_use and v not in persistent:
                    pending_frees.append(slots[v])
            if stage_end[i] == i:
                cn.frees = tuple(dict.fromkeys(pending_frees))
                free_slots.extend(cn.frees)
                pending_frees = []
        else:
            # A dead input whose slot was just handed to an output of
            # this node is aliased, not dead — the write IS the free.
            cn.frees = tuple(slots[v] for v in dead
                             if slots[v] not in set(out_slots))
            # Outputs nobody consumes (and which are not graph outputs)
            # die immediately.
            for v in node.outputs:
                if v not in last_use and v not in persistent:
                    free_slots.append(slots[v])
                    cn.frees += (slots[v],)

    template: List[Optional[np.ndarray]] = [None] * n_slots
    for name, arr in graph.initializers.items():
        template[slots[name]] = arr

    output_plan = [(name, slots[name]) for name in graph.outputs]
    program = Program(graph=graph, batch_size=batch_size, nodes=compiled,
                      n_slots=n_slots, template=template,
                      input_plan=input_plan, output_plan=output_plan,
                      shapes=shapes, static_profile=profile,
                      static_error=static_error, slot_map=slots,
                      pass_reports=pass_reports,
                      stage_ranges=stage_ranges,
                      workers=(workers if workers is not None
                               else _default_workers()))
    if verify:
        from ..analysis.context import AnalysisContext
        from ..analysis.verify import raise_on_errors, run_checks

        program_diags = run_checks(
            AnalysisContext(graph, batch_size=batch_size, program=program),
            scope="program")
        raise_on_errors(program_diags)
        program.diagnostics = diagnostics + program_diags
    return program
