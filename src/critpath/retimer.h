/**
 * @file
 * Analytic re-timing of a frozen dependence graph under what-if
 * machine models. One Retimer::retime() call is a single longest-path
 * pass over the graph in its recorded topological order — O(edges) —
 * so sweeping dozens of configurations over one traced run costs
 * milliseconds where re-simulation costs minutes.
 *
 * Exactness contract (DESIGN.md section 13): the *base* model
 * (exact_replay) re-applies every edge's observed latency, so every
 * node's re-timed tick equals its observed tick and the final cycle
 * count is bit-identical to the simulator's. What-if models replace
 * observed latencies with analytic transfer functions; they are
 * approximations with known one-sided biases (they re-time the traced
 * schedule's dependence structure and cannot invent events the traced
 * run never exhibited, e.g. new EGPW windows or new transparent
 * passes at higher CI precision).
 */

#ifndef REDSOC_CRITPATH_RETIMER_H
#define REDSOC_CRITPATH_RETIMER_H

#include <array>
#include <string>
#include <vector>

#include "critpath/dep_graph.h"
#include "timing/completion_instant.h"

namespace redsoc {

/**
 * A machine model for one re-timing pass. The default-constructed
 * model is the exact base replay; what-if models clear exact_replay
 * and adjust the knobs they care about.
 */
struct WhatIfModel
{
    std::string name = "base";
    /** Replay every edge with its observed latency (exact). */
    bool exact_replay = true;
    /** CI precision in bits for transparent-recycle arrival
     *  quantization; 0 = the traced run's precision. Precisions above
     *  the traced tpc's log2 cannot add information and clamp. */
    unsigned ci_bits = 0;
    /** Honor the traced run's same-cycle EGPW wakeup windows; when
     *  false every wakeup costs a full broadcast cycle. */
    bool egpw = true;
    /** FU unit-count scale per pool (floor, min 1 unit). 1.0 replays
     *  the traced structural order; other values re-derive the
     *  constraints from the per-pool issue order. */
    double fu_scale = 1.0;
    /** Ideal recycling: every operand arrives the instant its
     *  producer completes (optimistic bound on slack recycling). */
    bool zero_latency_recycle = false;
    /** No recycling at all: every operand waits for the next cycle
     *  boundary (conventional baseline bound). */
    bool no_recycle = false;
};

/** Result of one re-timing pass. */
struct RetimeResult
{
    std::string model;
    Cycle cycles = 0; ///< re-timed committed-run length in cycles
    u64 ops = 0;
    /**
     * Critical-path breakdown: walking back from the last-committing
     * node along each node's binding (argmax) constraint, how many
     * path steps each edge kind contributed. Derived FU constraints
     * (fu_scale != 1) are charged to FuStruct.
     */
    std::array<u64, static_cast<size_t>(EdgeKind::NUM)> path_kinds{};
    u64 path_len = 0;
};

class Retimer
{
  public:
    /** @p graph must outlive the Retimer; scratch arrays are sized
     *  once here and reused across retime() calls. */
    explicit Retimer(const DepGraph &graph);

    RetimeResult retime(const WhatIfModel &model);

    /**
     * Batched what-if sweep: one topological pass advancing every
     * model's time lane simultaneously. Edge classification is
     * hoisted into a model-independent plan (built once per graph),
     * so the per-model marginal cost is a handful of u32 adds and
     * maxes per edge — the inner lane loops autovectorize. Results
     * match retime() model-for-model (test_critpath proves it), but
     * no critical-path breakdown is produced (path_kinds stays
     * zero). exact_replay models are rejected: the base replay is a
     * single retime() call and needs no batching.
     */
    std::vector<RetimeResult>
    retimeAll(const std::vector<WhatIfModel> &models);

    /** Re-timed tick per milestone node (nodeId() indexing), valid
     *  after the last retime() call — the exactness tests compare
     *  this against the graph's observed lanes. */
    const std::vector<Tick> &nodeTimes() const { return time_; }

    /** Reads of the last retimeAll() call that went to the far table
     *  rather than the ring (see ring_). */
    struct FarReads
    {
        u64 plan = 0; ///< plan entries
        u64 fu = 0;   ///< FU gathers
    };
    const FarReads &farReads() const { return far_reads_; }

  private:
    static constexpr u32 kNoNode = ~u32{0};
    /** Batched-pass ring depth in stream positions: 1 MB at 64 lanes,
     *  small enough to stay cache-resident. */
    static constexpr u32 kRingRows = 4096;
    /** PlanEntry::src flag: the row lives in the far table. */
    static constexpr u32 kFarRow = u32{1} << 31;
    static constexpr u32 kNoFar = ~u32{0};

    /** retime()'s node loop for the base model (observed latencies,
     *  no model branches) and for a what-if model. */
    void replayExact();
    void replayModel(const WhatIfModel &model);
    /** A what-if model's bound on @p dst_op's node through @p edge. */
    Tick edgeCandidate(const WhatIfModel &model, const Edge &edge,
                       u32 dst_op, Tick src_t) const;

    /** Batched-pass edge classes: what survives of edgeCandidate()
     *  once everything model-independent is folded into k. */
    enum class PlanOp : u8 {
        Null,       ///< contributes nothing (fused DataReady)
        InvAdd,     ///< src + k, identical across models
        WakeSpec,   ///< src + wake_add[m]
        SelTransp,  ///< src + sel_add[m]
        FuStruct,   ///< unused: FU constraints are re-derived per model
        DataPlain,  ///< (src + dp_add[m]) & dp_mask[m]
        DataTransp, ///< (src + dt_add[m]) & dt_mask[m]
        /** X folded into W: the operand-arrival bound shifted by the
         *  op's exec latency, added after the arrival mask. */
        DataPlainW,  ///< ((src + dp_add[m]) & dp_mask[m]) + k
        DataTranspW, ///< ((src + dt_add[m]) & dt_mask[m]) + k
        DrPlain,    ///< sat(ceil(src) - dr_p_sub[m])
        DrTransp,   ///< sat(ceil(src) - dr_t_sub[m])
        DrEgpwPlain,  ///< DrPlain, skipped for egpw models
        DrEgpwTransp, ///< DrTransp, skipped for egpw models
        Ceil,       ///< ceil-to-boundary(src)
        Branch,     ///< redirect formula per lane (rare)
    };
    struct PlanEntry
    {
        /** Source row: its ring row (stream position mod kRingRows),
         *  or kFarRow | its far slot when it is read kRingRows or more
         *  positions after it is written. */
        u32 src = 0;
        u32 k = 0;
        PlanOp op = PlanOp::Null;
    };

    /** One walk over the graph's topological order: ms_begin_, the
     *  plan stream and its far slots. */
    void buildPlan();

    const DepGraph *graph_;
    SubCycleClock clock_;
    /** CSR sub-boundaries: per op, the first edge index targeting
     *  each destination milestone (6 fences per op), found by
     *  buildPlan()'s walk. */
    std::vector<std::array<u32, 6>> ms_begin_;
    std::vector<Tick> time_;
    /** Binding constraint per node for the critical-path walk. */
    std::vector<u32> arg_src_;
    std::vector<u8> arg_kind_;
    /** One batched-pass stream element: a destination node and how
     *  many consecutive plan_ entries feed it. */
    struct NodeRef
    {
        u32 node = 0;
        u32 count = 0;
    };
    /** Batched-pass entry stream, laid out in topological order so
     *  the hot pass reads node_refs_ and plan_ strictly sequentially
     *  (the op-major CSR fences would make the walk jump around).
     *  buildPlan() prunes model-independently dominated edges, folds
     *  whole-cycle Exec hops into their W nodes, and drops the
     *  (now in-edge-free, reader-free) X nodes from the stream, so
     *  the plan is shorter than the edge array. A node's stream
     *  position is its index in node_refs_. */
    std::vector<NodeRef> node_refs_;
    std::vector<PlanEntry> plan_;
    /** Stream position of each op's S node (the FU-gather sources). */
    std::vector<u32> s_pos_;
    /** Far slot per stream position as buildPlan() assigns them
     *  (kNoFar if none): the far plan sources and the last op's C
     *  node, whose row holds the results. */
    std::vector<u32> plan_far_;
    u32 plan_far_rows_ = 0;
    u64 plan_far_reads_ = 0;
    u32 result_slot_ = 0;
    /** retimeAll()'s far slots: plan_far_ plus the FU-gather sources
     *  beyond the ring under this call's unit counts. */
    std::vector<u32> far_slot_;
    /** Batched time lanes, MP u32 per row (MP = the padded model
     *  count), so a node's record is one contiguous row and the lane
     *  loops autovectorize. The node at stream position p writes ring
     *  row p mod kRingRows, and also its far_ row if it has a far
     *  slot. A ring row survives until the node kRingRows positions
     *  later overwrites it, so every read from fewer positions back
     *  finds it intact; the rest read far_. Every row is written
     *  before it is read (stream order is topological), so neither
     *  buffer is cleared between calls; resize() zero-fills only
     *  when a buffer grows. */
    std::vector<u32> ring_;
    std::vector<u32> far_;
    FarReads far_reads_;
};

} // namespace redsoc

#endif // REDSOC_CRITPATH_RETIMER_H
