#include "critpath/retimer.h"

#include <algorithm>
#include <memory>
#include <type_traits>

#include "common/logging.h"

namespace redsoc {

Retimer::Retimer(const DepGraph &graph)
    : graph_(&graph),
      // Only the tick arithmetic of the clock is used here; the
      // physical period is irrelevant to re-timing.
      clock_(graph.params.ci_precision_bits, Picos{1000})
{
    fatal_if(clock_.ticksPerCycle() != graph.params.ticks_per_cycle,
             "graph tpc ", graph.params.ticks_per_cycle,
             " inconsistent with ci_precision_bits ",
             graph.params.ci_precision_bits);
    buildPlan();
}

void
Retimer::buildPlan()
{
    const DepGraph &g = *graph_;
    const Tick tpc = clock_.ticksPerCycle();
    fatal_if(g.topo.size() >= kFarRow, "graph of ", g.topo.size(),
             " nodes is too large for the batched pass");

    // A producer is "plain" when its select, execute, and writeback
    // are model-invariantly chained: conventional select (not EGPW,
    // so its own operands are bounded by its select via DataReady),
    // not transparent (fixed +tpc select-to-exec), not fused, not
    // frontend-resolved. For such p, every model re-times
    // X(p) = S(p) + tpc and W(p) = X(p) + kx(p), with S-lane values
    // cycle-aligned — which is what the dominance proofs below rest
    // on (DESIGN.md section 13).
    const auto plainOp = [&g](u32 op) {
        return !(g.flags[op] &
                 (kOpTransparent | kOpFused | kOpEgpwSelect |
                  kOpFrontendResolved));
    };

    // One walk over g.topo emits the plan in the order the batched
    // pass settles nodes, so it reads node_refs_ and plan_ strictly
    // sequentially. Each op's nodes come in pipeline order and each
    // node's in-edges are the next sub-range of the op's CSR range, so
    // the walk also finds the fences (ms_begin_) retime() indexes by.
    constexpr u32 kNoPos = ~u32{0};
    ms_begin_.assign(g.num_ops, {kNoPos, kNoPos, kNoPos, kNoPos, kNoPos,
                                 kNoPos});
    std::vector<u32> pos_of(size_t{g.num_ops} * kNumMilestones, kNoPos);
    node_refs_.clear();
    node_refs_.reserve(g.topo.size());
    plan_.clear();
    plan_.reserve(g.edges.size());
    s_pos_.assign(g.num_ops, kNoPos);
    plan_far_.clear();
    plan_far_.reserve(g.topo.size());
    plan_far_rows_ = 0;
    plan_far_reads_ = 0;
    const auto farSlot = [this](u32 pos) {
        u32 &slot = plan_far_[pos];
        if (slot == kNoFar)
            slot = plan_far_rows_++;
        return slot;
    };

    // The source node of each entry the current node has emitted, for
    // the prunes and far slots; sized to the largest in-degree.
    u32 max_in = 0;
    for (u32 i = 0; i < g.num_ops; ++i)
        max_in = std::max(max_in, g.edge_begin[i + 1] - g.edge_begin[i]);
    std::vector<u32> srcs(max_in);

    for (const u32 node : g.topo) {
        const u32 i = nodeOp(node);
        const Milestone ms = nodeMilestone(node);
        auto &fence = ms_begin_[i];
        if (ms == Milestone::D)
            fence[0] = g.edge_begin[i];
        // Fold X into W unconditionally: structurally W's only
        // in-edge is Exec (W = X + kx verbatim in every model) and
        // X's only consumer is that Exec edge (Data, DataReady and
        // BranchRecover all source from W), so X's in-edges move to
        // W and both the Exec edge and the X node disappear. Linear
        // entries (SelectToExec) absorb kx into k; arrival-masked
        // Data entries switch to the post-mask-add classes, which
        // add kx *after* the model's arrival quantization — exactly
        // max(sel + kx, ceil(arrival) + kx) = X + kx = W. The X and W
        // sub-ranges are adjacent, so the W node reads both.
        if (ms == Milestone::X)
            continue;
        const u32 first = static_cast<u32>(
            ms == Milestone::W ? Milestone::X : ms);
        const u32 begin = fence[first];
        fatal_if(begin == kNoPos, "op ", i, "'s ", milestoneName(ms),
                 " node precedes its earlier milestones in topo");
        const u16 fl = g.flags[i];
        const u32 kx = static_cast<u32>(g.obs_w[i] - g.obs_x[i]);
        const u32 pos = static_cast<u32>(node_refs_.size());
        const size_t base = plan_.size();
        u32 n = 0, n_x = 0, n_cap = 0, youngest_cap = 0;
        bool x_after_w = false, far = false;
        const auto drop = [&](u32 k) {
            plan_.erase(plan_.begin() + static_cast<std::ptrdiff_t>(base + k));
            std::copy(srcs.begin() + k + 1, srcs.begin() + n,
                      srcs.begin() + k);
            --n;
        };

        const u32 op_end = g.edge_begin[i + 1];
        u32 e = begin;
        for (; e < op_end; ++e) {
            const Edge &edge = g.edges[e];
            const Milestone dst = edgeDstMilestone(edge.kind);
            if (dst != ms && !(ms == Milestone::W && dst == Milestone::X))
                break;
            n_x += dst == Milestone::X;
            x_after_w |= dst == Milestone::X && e - begin != n_x - 1;
            PlanEntry p;
            p.op = PlanOp::InvAdd;
            switch (edge.kind) {
            case EdgeKind::RobCap:
            case EdgeKind::LsqCap:
                ++n_cap;
                youngest_cap = std::max(youngest_cap, edge.src);
                break; // InvAdd k=0, pruned below
            case EdgeKind::FrontendOrder:
            case EdgeKind::RsCap:
            case EdgeKind::CommitOrder:
            case EdgeKind::MemOrder:
                break; // InvAdd k=0
            case EdgeKind::FrontendWidth:
            case EdgeKind::CommitWidth:
                p.k = static_cast<u32>(tpc);
                break;
            case EdgeKind::BranchRecover:
                p.op = PlanOp::Branch;
                break;
            case EdgeKind::DispatchToSelect:
                if (!(fl & kOpFrontendResolved))
                    p.k = static_cast<u32>(tpc);
                break;
            case EdgeKind::Wake:
                if (edge.aux & kEdgeWakeFused)
                    break; // k=0
                if (edge.aux & kEdgeWakeSpeculative)
                    p.op = PlanOp::WakeSpec;
                else
                    p.k = static_cast<u32>(tpc);
                break;
            case EdgeKind::FuStruct:
                // Re-derived per model from the pool grant order (the
                // retimeAll FU gather); at fu_scale 1 the derivation
                // reproduces this edge exactly.
                continue;
            case EdgeKind::DataReady:
                if (fl & kOpFused)
                    continue; // no constraint in any model
                // Wake/DataReady pair dominance: a producer p
                // constrains this op's select twice — Wake (S(p) side)
                // and DataReady (W(p) side). For plain p both sides are
                // fixed functions of S(p) in every model, so one always
                // dominates: exec latency kx(p) <= tpc means
                // ceil(W(p)) - window <= S(p) + tpc (the Wake bound) in
                // all models — drop DataReady; kx(p) > tpc means
                // ceil(kx) >= 2tpc, so DataReady clears the Wake bound
                // even at the widest window — drop one plain Wake (the
                // builder appends it before the DataReady; a speculative
                // Wake must stay: EGPW-honoring models collapse
                // DataReady to zero but still need the same-cycle S(p)
                // bound).
                if (plainOp(edge.src)) {
                    if (g.obs_w[edge.src] - g.obs_x[edge.src] <= tpc)
                        continue;
                    const u32 wake_src = nodeId(edge.src, Milestone::S);
                    for (u32 k = 0; k < n; ++k)
                        if (plan_[base + k].op == PlanOp::InvAdd &&
                            plan_[base + k].k == tpc && srcs[k] == wake_src) {
                            drop(k);
                            break;
                        }
                }
                if (fl & kOpEgpwSelect)
                    p.op = (fl & kOpTransparent) ? PlanOp::DrEgpwTransp
                                                 : PlanOp::DrEgpwPlain;
                else
                    p.op = (fl & kOpTransparent) ? PlanOp::DrTransp
                                                 : PlanOp::DrPlain;
                break;
            case EdgeKind::SelectToExec:
                if (fl & (kOpFused | kOpFrontendResolved))
                    p.k = static_cast<u32>(g.obs_x[i] - g.obs_s[i]);
                else if (fl & kOpTransparent)
                    p.op = PlanOp::SelTransp;
                else
                    p.k = static_cast<u32>(tpc);
                p.k += kx;
                break;
            case EdgeKind::Data:
                p.op = (edge.aux & kEdgeDataTransparent)
                           ? PlanOp::DataTranspW
                           : PlanOp::DataPlainW;
                p.k = kx;
                break;
            case EdgeKind::Exec:
                continue; // folded into the moved X in-edges
            case EdgeKind::WbToCommit:
                p.op = PlanOp::Ceil;
                break;
            case EdgeKind::NUM:
                panic("unreachable edge kind");
            }
            // The source becomes a ring row, or a far slot (once the
            // prunes settle which entries stay) when it is kRingRows or
            // more stream positions back: its ring row is overwritten.
            const u32 src = nodeId(edge.src, edgeSrcMilestone(edge.kind));
            const u32 src_pos = pos_of[src];
            fatal_if(src_pos >= pos, "plan source node ", src,
                     " is not settled before its reader ", node);
            far |= pos - src_pos >= kRingRows;
            p.src = src_pos % kRingRows;
            srcs[n++] = src;
            plan_.push_back(p);
        }
        fence[first + 1] = ms == Milestone::W ? begin + n_x : e;
        fence[static_cast<u32>(ms) + 1] = e;
        fatal_if(x_after_w || (ms == Milestone::C && e != op_end), "op ",
                 i, " has edges out of milestone order");

        // Capacity-edge dominance: C-lane values are monotone in op
        // index in every model (every C node chains off C(i-1) via
        // CommitOrder), so of this D node's C-sourced k=0 capacity
        // bounds (RobCap, LsqCap) only the youngest source can ever
        // bind — drop the rest.
        if (n_cap > 1) {
            const u32 keep = nodeId(youngest_cap, Milestone::C);
            for (u32 k = n; k-- > 0;)
                if (nodeMilestone(srcs[k]) == Milestone::C &&
                    srcs[k] != keep)
                    drop(k);
        }
        if (far) {
            for (u32 k = 0; k < n; ++k) {
                const u32 src_pos = pos_of[srcs[k]];
                if (pos - src_pos >= kRingRows) {
                    plan_[base + k].src = kFarRow | farSlot(src_pos);
                    ++plan_far_reads_;
                }
            }
        }

        pos_of[node] = pos;
        if (ms == Milestone::S)
            s_pos_[i] = pos;
        node_refs_.push_back(NodeRef{node, n});
        plan_far_.push_back(kNoFar);
    }
    // The results are read from the last op's C row after the pass.
    if (g.num_ops != 0)
        result_slot_ = farSlot(pos_of[nodeId(g.num_ops - 1, Milestone::C)]);
}

Tick
Retimer::edgeCandidate(const WhatIfModel &m, const Edge &edge,
                       u32 dst_op, Tick src_t) const
{
    const DepGraph &g = *graph_;
    const Tick tpc = clock_.ticksPerCycle();
    switch (edge.kind) {
    case EdgeKind::FrontendOrder:
    case EdgeKind::RobCap:
    case EdgeKind::RsCap:
    case EdgeKind::LsqCap:
    case EdgeKind::CommitOrder:
        // Same-cycle resource recycling: the freeing phase runs
        // before the consuming phase of the same cycle.
        return src_t;
    case EdgeKind::FrontendWidth:
    case EdgeKind::CommitWidth:
        return src_t + tpc;
    case EdgeKind::BranchRecover: {
        const Cycle done = clock_.cycleOf(src_t == 0 ? 0 : src_t - 1);
        return clock_.cycleStart(done + 1 + g.params.redirect_penalty);
    }
    case EdgeKind::DispatchToSelect:
        return (g.flags[dst_op] & kOpFrontendResolved) ? src_t
                                                       : src_t + tpc;
    case EdgeKind::Wake:
        // EGPW grants ride the parent's select cycle; MOS fusions
        // ride the producer's. Everything else pays the broadcast.
        if ((edge.aux & kEdgeWakeFused) ||
            ((edge.aux & kEdgeWakeSpeculative) && m.egpw))
            return src_t;
        return src_t + tpc;
    case EdgeKind::FuStruct:
        // fu_scale == 1 replay; scaled models skip stored FuStruct
        // edges and re-derive the constraint from pool_order.
        return src_t + tpc;
    case EdgeKind::MemOrder:
        // The store's grant resolves its address and the same-cycle
        // re-evaluation can admit the parked load within the very
        // same issue phase, so the constraint is tick-equality.
        return src_t;
    case EdgeKind::DataReady: {
        // Grant only once the operand lands within the arrival
        // window: one cycle ahead conventionally, two for a
        // transparent recycle (the producer may complete mid-cycle
        // after the grant). EGPW grants exist precisely to break
        // this wait; fused ops ride their producer's grant.
        const u16 fl = g.flags[dst_op];
        if (fl & kOpFused)
            return 0;
        if ((fl & kOpEgpwSelect) && m.egpw)
            return 0;
        const Tick ahead = m.zero_latency_recycle ||
                                   ((fl & kOpTransparent) && !m.no_recycle)
                               ? 2 * tpc
                               : tpc;
        const Tick bound = clock_.ceilToBoundary(src_t);
        return bound > ahead ? bound - ahead : 0;
    }
    case EdgeKind::SelectToExec: {
        const u16 fl = g.flags[dst_op];
        if (fl & (kOpFused | kOpFrontendResolved))
            return src_t + (g.obs_x[dst_op] - g.obs_s[dst_op]);
        if ((fl & kOpTransparent) && !m.no_recycle)
            return src_t; // data arrival sets the transparent start
        return src_t + tpc;
    }
    case EdgeKind::Data: {
        if (m.zero_latency_recycle)
            return src_t;
        if (!(edge.aux & kEdgeDataTransparent) || m.no_recycle)
            return clock_.ceilToBoundary(src_t);
        // Transparent pass: the consumer latches at the producer's CI
        // rounded up to the model's precision grain (the latch can
        // only close on an instant the CI field can express).
        unsigned bits = m.ci_bits ? m.ci_bits : clock_.precisionBits();
        if (bits > clock_.precisionBits())
            bits = clock_.precisionBits();
        const Tick grain = tpc >> bits;
        return (src_t + grain - 1) / grain * grain;
    }
    case EdgeKind::Exec:
        // Execution latency is a property of the op, not the config.
        return src_t + (g.obs_w[dst_op] - g.obs_x[dst_op]);
    case EdgeKind::WbToCommit:
        return clock_.ceilToBoundary(src_t);
    case EdgeKind::NUM:
        break;
    }
    panic("unreachable edge kind");
    return 0;
}

void
Retimer::replayExact()
{
    // Tight replay: every edge re-applies the latency the simulator
    // observed, t(dst) = max over in-edges of t(src) + obs(dst) -
    // obs(src), walking the raw edge array (not the batched plan).
    const DepGraph &g = *graph_;
    const std::array<const Tick *, kNumMilestones> obs = {
        g.obs_d.data(), g.obs_s.data(), g.obs_x.data(), g.obs_w.data(),
        g.obs_c.data()};
    for (const u32 node : g.topo) {
        const u32 i = nodeOp(node);
        const u32 ms = static_cast<u32>(nodeMilestone(node));
        const Tick obs_dst = obs[ms][i];
        Tick best = 0;
        u32 best_src = kNoNode;
        u8 best_kind = static_cast<u8>(EdgeKind::NUM);
        for (u32 e = ms_begin_[i][ms]; e < ms_begin_[i][ms + 1]; ++e) {
            const Edge &edge = g.edges[e];
            const Milestone sms = edgeSrcMilestone(edge.kind);
            const u32 src_node = nodeId(edge.src, sms);
            const Tick obs_src = obs[static_cast<u32>(sms)][edge.src];
            const Tick cand = time_[src_node] + (obs_dst - obs_src);
            if (cand > best) {
                best = cand;
                best_src = src_node;
                best_kind = static_cast<u8>(edge.kind);
            }
        }
        time_[node] = best;
        arg_src_[node] = best_src;
        arg_kind_[node] = best_kind;
    }
}

void
Retimer::replayModel(const WhatIfModel &model)
{
    const DepGraph &g = *graph_;
    const bool derive_fu = model.fu_scale != 1.0;
    std::array<u32, static_cast<size_t>(FuPoolKind::NUM)> eff_units{};
    for (size_t p = 0; p < eff_units.size(); ++p) {
        const double scaled = g.params.units[p] * model.fu_scale;
        eff_units[p] = scaled < 1.0 ? 1u : static_cast<u32>(scaled);
    }
    const Tick tpc = clock_.ticksPerCycle();

    for (const u32 node : g.topo) {
        const u32 i = nodeOp(node);
        const Milestone ms = nodeMilestone(node);
        Tick best = 0;
        u32 best_src = kNoNode;
        u8 best_kind = static_cast<u8>(EdgeKind::NUM);
        const auto &fence = ms_begin_[i];
        const u32 m = static_cast<u32>(ms);
        for (u32 e = fence[m]; e < fence[m + 1]; ++e) {
            const Edge &edge = g.edges[e];
            if (derive_fu && edge.kind == EdgeKind::FuStruct)
                continue;
            const u32 src_node =
                nodeId(edge.src, edgeSrcMilestone(edge.kind));
            const Tick cand =
                edgeCandidate(model, edge, i, time_[src_node]);
            if (cand > best) {
                best = cand;
                best_src = src_node;
                best_kind = static_cast<u8>(edge.kind);
            }
        }
        if (derive_fu && ms == Milestone::S &&
            g.pool_pos[i] != kNoPoolPos) {
            const u8 pool = g.pool[i];
            const u32 pos = g.pool_pos[i];
            if (pos >= eff_units[pool]) {
                const u32 src_node = nodeId(
                    g.pool_order[pool][pos - eff_units[pool]],
                    Milestone::S);
                const Tick cand = time_[src_node] + tpc;
                if (cand > best) {
                    best = cand;
                    best_src = src_node;
                    best_kind = static_cast<u8>(EdgeKind::FuStruct);
                }
            }
        }
        time_[node] = best;
        arg_src_[node] = best_src;
        arg_kind_[node] = best_kind;
    }
}

RetimeResult
Retimer::retime(const WhatIfModel &model)
{
    const DepGraph &g = *graph_;
    RetimeResult r;
    r.model = model.name;
    r.ops = g.num_ops;

    const size_t n_nodes = size_t{g.num_ops} * kNumMilestones;
    time_.assign(n_nodes, 0);
    arg_src_.assign(n_nodes, kNoNode);
    arg_kind_.assign(n_nodes, static_cast<u8>(EdgeKind::NUM));
    if (model.exact_replay)
        replayExact();
    else
        replayModel(model);

    if (g.num_ops == 0)
        return r;

    // Commits are in order, so the last op's C node is the run's end;
    // the simulator's run loop exits one cycle after it.
    u32 node = nodeId(g.num_ops - 1, Milestone::C);
    r.cycles = clock_.cycleOf(time_[node]) + 1;

    // Walk the binding constraints back to a source node for the
    // critical-path breakdown.
    while (arg_src_[node] != kNoNode) {
        ++r.path_kinds[arg_kind_[node]];
        ++r.path_len;
        node = arg_src_[node];
    }
    return r;
}

std::vector<RetimeResult>
Retimer::retimeAll(const std::vector<WhatIfModel> &models)
{
    const DepGraph &g = *graph_;
    const u32 M = static_cast<u32>(models.size());
    fatal_if(M == 0 || M > 64, "retimeAll wants 1..64 models, got ",
             M);

    // The batched lanes are deliberately u32 (tick counts of a single
    // traced run fit with room to spare; the narrow rows are what
    // keeps the pass memory-bound instead of worse).
    // redsoc-lint: allow(cycle-narrow)
    const u32 tpc = static_cast<u32>(clock_.ticksPerCycle());
    fatal_if((tpc & (tpc - 1)) != 0,
             "retimeAll's mask arithmetic needs a power-of-two tick "
             "period, got ", tpc);
    const u32 ceil_add = tpc - 1;
    const u32 ceil_mask = ~ceil_add;
    constexpr u32 kSkip = ~u32{0};

    // Per-model constant vectors: everything edgeCandidate() decides
    // from the model alone, folded down so the lane loops are pure
    // add/and/max.
    std::vector<u32> wake_add(M), sel_add(M), dp_add(M),
        dp_mask(M), dt_add(M), dt_mask(M), dr_p_sub(M), dr_t_sub(M),
        dr_ep_sub(M), dr_et_sub(M);
    // Models re-deriving FU structural constraints, grouped by
    // effective unit-count signature (one gather per group).
    struct FuGroup
    {
        std::array<u32, static_cast<size_t>(FuPoolKind::NUM)> eff{};
        std::vector<u32> members;
    };
    std::vector<FuGroup> fu_groups;

    for (u32 m = 0; m < M; ++m) {
        const WhatIfModel &mod = models[m];
        fatal_if(mod.exact_replay, "retimeAll is for what-if models; "
                 "replay '", mod.name, "' via retime()");
        const bool zl = mod.zero_latency_recycle;
        const bool nr = mod.no_recycle;
        wake_add[m] = mod.egpw ? 0 : tpc;
        sel_add[m] = nr ? tpc : 0;
        dp_add[m] = zl ? 0 : ceil_add;
        dp_mask[m] = zl ? ~u32{0} : ceil_mask;
        if (zl) {
            dt_add[m] = 0;
            dt_mask[m] = ~u32{0};
        } else if (nr) {
            dt_add[m] = ceil_add;
            dt_mask[m] = ceil_mask;
        } else {
            unsigned bits =
                mod.ci_bits ? mod.ci_bits : clock_.precisionBits();
            if (bits > clock_.precisionBits())
                bits = clock_.precisionBits();
            const u32 grain = tpc >> bits;
            dt_add[m] = grain - 1;
            dt_mask[m] = ~(grain - 1);
        }
        dr_p_sub[m] = zl ? 2 * tpc : tpc;
        dr_t_sub[m] = zl ? 2 * tpc : (nr ? tpc : 2 * tpc);
        dr_ep_sub[m] = mod.egpw ? kSkip : dr_p_sub[m];
        dr_et_sub[m] = mod.egpw ? kSkip : dr_t_sub[m];
        // Every model re-derives its FU structural constraints from
        // the recorded per-pool grant order: at fu_scale 1 the
        // derived source pool_order[pos - units] is identical to the
        // traced FuStruct edge, so the plan carries no FuStruct
        // entries at all and one gather per effective-unit signature
        // serves the whole lane block.
        {
            std::array<u32, static_cast<size_t>(FuPoolKind::NUM)> eff{};
            for (size_t p = 0; p < eff.size(); ++p) {
                const double scaled = g.params.units[p] * mod.fu_scale;
                eff[p] = scaled < 1.0 ? 1u : static_cast<u32>(scaled);
            }
            FuGroup *grp = nullptr;
            for (FuGroup &cand : fu_groups)
                if (cand.eff == eff)
                    grp = &cand;
            if (!grp) {
                fu_groups.push_back(FuGroup{eff, {}});
                grp = &fu_groups.back();
            }
            grp->members.push_back(m);
        }
    }
    const u32 redirect_add =
        (1 + static_cast<u32>(g.params.redirect_penalty)) * tpc;

    // Pad the lane count to a whole number of 8-wide vector steps so
    // the per-entry lane loops never run a scalar epilogue. Padding
    // lanes replay model 0's constants; their results are ignored.
    const u32 MP = (M + 7u) & ~7u;
    for (std::vector<u32> *v :
         {&wake_add, &sel_add, &dp_add, &dp_mask, &dt_add,
          &dt_mask, &dr_p_sub, &dr_t_sub, &dr_ep_sub, &dr_et_sub})
        v->resize(MP, v->front());

    // Fold every edge class into one uniform per-lane formula
    //
    //   v = (src + k + add[cls][m]) & mask[cls][m]
    //   c = v >= sub[cls][m] ? v - sub[cls][m] : 0
    //
    // driven by three small class-indexed constant tables. Null rows
    // mask to zero, the EGPW-honored DataReady rows carry an
    // impossible subtrahend (~0) so they saturate to zero, and plain
    // adds use an all-ones mask with zero subtrahend — so the hot
    // loop has no per-entry class dispatch at all. An earlier
    // variant dispatched a switch per entry; its unpredictable
    // indirect branch cost ~3x the lane arithmetic. Only the rare
    // BranchRecover entries keep a special case (one well-predicted
    // compare per entry).
    // Lane records are a whole number of 32-byte vectors; keep their
    // bases 64-byte aligned so no vector load or store straddles a
    // cache line (vector<u32> alone only guarantees 16).
    const auto alignedBase = [](std::vector<u32> &v, size_t n) {
        v.resize(n + 16);
        void *base = v.data();
        size_t space = v.size() * sizeof(u32);
        return static_cast<u32 *>(
            std::align(64, n * sizeof(u32), base, space));
    };
    const u32 n_cls = static_cast<u32>(PlanOp::Branch) + 1;
    std::vector<u32> addtab_v, masktab_v, subtab_v;
    u32 *const addtab = alignedBase(addtab_v, size_t{n_cls} * MP);
    u32 *const masktab = alignedBase(masktab_v, size_t{n_cls} * MP);
    u32 *const subtab = alignedBase(subtab_v, size_t{n_cls} * MP);
    std::fill_n(addtab, size_t{n_cls} * MP, 0u);
    std::fill_n(masktab, size_t{n_cls} * MP, ~u32{0});
    std::fill_n(subtab, size_t{n_cls} * MP, 0u);
    auto row = [MP](u32 *t, PlanOp op) {
        return &t[size_t{static_cast<u32>(op)} * MP];
    };
    for (u32 m = 0; m < MP; ++m) {
        row(masktab, PlanOp::Null)[m] = 0;
        row(subtab, PlanOp::Null)[m] = ~u32{0};
        row(addtab, PlanOp::WakeSpec)[m] = wake_add[m];
        row(addtab, PlanOp::SelTransp)[m] = sel_add[m];
        row(addtab, PlanOp::DataPlain)[m] = dp_add[m];
        row(masktab, PlanOp::DataPlain)[m] = dp_mask[m];
        row(addtab, PlanOp::DataTransp)[m] = dt_add[m];
        row(masktab, PlanOp::DataTransp)[m] = dt_mask[m];
        row(addtab, PlanOp::DataPlainW)[m] = dp_add[m];
        row(masktab, PlanOp::DataPlainW)[m] = dp_mask[m];
        row(addtab, PlanOp::DataTranspW)[m] = dt_add[m];
        row(masktab, PlanOp::DataTranspW)[m] = dt_mask[m];
        for (PlanOp op : {PlanOp::DrPlain, PlanOp::DrTransp,
                          PlanOp::DrEgpwPlain, PlanOp::DrEgpwTransp,
                          PlanOp::Ceil}) {
            row(addtab, op)[m] = ceil_add;
            row(masktab, op)[m] = ceil_mask;
        }
        row(subtab, PlanOp::DrPlain)[m] = dr_p_sub[m];
        row(subtab, PlanOp::DrTransp)[m] = dr_t_sub[m];
        row(subtab, PlanOp::DrEgpwPlain)[m] = dr_ep_sub[m];
        row(subtab, PlanOp::DrEgpwTransp)[m] = dr_et_sub[m];
    }

    // A group's FU constraint at op i's S node: the S row of the op
    // granted eff[pool] places earlier in i's pool, by stream position
    // (kNoNode when the pool had fewer grants before i).
    const auto fuSourcePos = [&g, this](u32 i, const FuGroup &grp) {
        const u8 pool = g.pool[i];
        const u32 pos = g.pool_pos[i];
        if (pos < grp.eff[pool])
            return kNoNode;
        return s_pos_[g.pool_order[pool][pos - grp.eff[pool]]];
    };
    const auto hasFuGather = [&g](const NodeRef &ref) {
        return nodeMilestone(ref.node) == Milestone::S &&
               g.pool_pos[nodeOp(ref.node)] != kNoPoolPos;
    };

    // Far rows of this call: the plan's, plus every FU-gather source
    // kRingRows or more positions behind its reader. The latter
    // depend on the groups' unit counts, so they are found per call.
    far_slot_ = plan_far_;
    u32 n_far = plan_far_rows_;
    far_reads_ = FarReads{plan_far_reads_, 0};
    for (u32 pos = 0; pos < node_refs_.size(); ++pos) {
        if (!hasFuGather(node_refs_[pos]))
            continue;
        for (const FuGroup &grp : fu_groups) {
            const u32 src_pos =
                fuSourcePos(nodeOp(node_refs_[pos].node), grp);
            if (src_pos == kNoNode)
                continue;
            fatal_if(src_pos >= pos, "FU source at stream position ",
                     src_pos, " is not settled before its reader at ",
                     pos);
            if (pos - src_pos < kRingRows)
                continue;
            ++far_reads_.fu;
            if (far_slot_[src_pos] == kNoFar)
                far_slot_[src_pos] = n_far++;
        }
    }
    u32 *const ring = alignedBase(ring_, size_t{kRingRows} * MP);
    u32 *const far = alignedBase(far_, size_t{n_far} * MP);

    // The node loop is instantiated per lane count: with the vector
    // width a compile-time constant the per-entry lane loops unroll
    // completely (no prologue/remainder control per entry), which is
    // where most of the per-entry fixed cost went in the
    // runtime-width variant.
    const auto pass = [&](auto mp_c) {
        constexpr u32 CMP = decltype(mp_c)::value;
        const auto rowOf = [ring, far](u32 src) -> const u32 * {
            return (src & kFarRow) ? &far[size_t{src ^ kFarRow} * CMP]
                                   : &ring[size_t{src} * CMP];
        };
        const size_t plan_sz = plan_.size();
        const u32 n_pos = static_cast<u32>(node_refs_.size());
        u32 best[CMP];
        size_t e = 0;
        for (u32 pos = 0; pos < n_pos; ++pos) {
            const NodeRef &ref = node_refs_[pos];
            const size_t e_end = e + ref.count;
            for (u32 m = 0; m < CMP; ++m)
                best[m] = 0;
            for (; e < e_end; ++e) {
                // Ring rows stay cache-resident; far rows are scattered
                // and the topo-ordered stream makes them known well in
                // advance, so pull them ~24 entries ahead (across node
                // boundaries — the stream is linear). Two touches per
                // 256-byte row; the adjacent-line prefetcher covers the
                // partner lines.
                if (e + 24 < plan_sz && (plan_[e + 24].src & kFarRow)) {
                    const char *const pr =
                        reinterpret_cast<const char *>(
                            rowOf(plan_[e + 24].src));
                    __builtin_prefetch(pr);
                    if (CMP > 32)
                        __builtin_prefetch(pr + 128);
                }
                const PlanEntry &p = plan_[e];
                const u32 *const src = rowOf(p.src);
                // InvAdd dominates the edge mix and needs none of the
                // class tables. Entries keep the builder's edge order,
                // which groups each milestone's edges by kind, so this
                // branch flips only a few times per node.
                if (p.op == PlanOp::InvAdd) {
                    const u32 k = p.k;
                    for (u32 m = 0; m < CMP; ++m) {
                        const u32 c = src[m] + k;
                        best[m] = best[m] < c ? c : best[m];
                    }
                    continue;
                }
                if (p.op == PlanOp::Branch) {
                    for (u32 m = 0; m < CMP; ++m) {
                        const u32 s = src[m];
                        const u32 c =
                            ((s == 0 ? 0 : s - 1) & ceil_mask) +
                            redirect_add;
                        best[m] = best[m] < c ? c : best[m];
                    }
                    continue;
                }
                const size_t r = size_t{static_cast<u32>(p.op)} * CMP;
                const u32 *const av = &addtab[r];
                const u32 *const mv = &masktab[r];
                const u32 k = p.k;
                // Post-mask-add classes (X folded into W): the exec
                // latency k lands after the arrival quantization.
                if (p.op == PlanOp::DataPlainW ||
                    p.op == PlanOp::DataTranspW) {
                    for (u32 m = 0; m < CMP; ++m) {
                        const u32 c = ((src[m] + av[m]) & mv[m]) + k;
                        best[m] = best[m] < c ? c : best[m];
                    }
                    continue;
                }
                const u32 *const sv = &subtab[r];
                for (u32 m = 0; m < CMP; ++m) {
                    const u32 v = (src[m] + k + av[m]) & mv[m];
                    const u32 c = v >= sv[m] ? v - sv[m] : 0;
                    best[m] = best[m] < c ? c : best[m];
                }
            }
            if (hasFuGather(ref)) {
                for (const FuGroup &grp : fu_groups) {
                    const u32 src_pos = fuSourcePos(nodeOp(ref.node), grp);
                    if (src_pos == kNoNode)
                        continue;
                    const u32 *const src =
                        rowOf(pos - src_pos < kRingRows
                                  ? src_pos % kRingRows
                                  : kFarRow | far_slot_[src_pos]);
                    for (const u32 m : grp.members) {
                        const u32 c = src[m] + tpc;
                        best[m] = best[m] < c ? c : best[m];
                    }
                }
            }
            u32 *const row = &ring[size_t{pos % kRingRows} * CMP];
            for (u32 m = 0; m < CMP; ++m)
                row[m] = best[m];
            if (far_slot_[pos] != kNoFar) {
                u32 *const far_row = &far[size_t{far_slot_[pos]} * CMP];
                for (u32 m = 0; m < CMP; ++m)
                    far_row[m] = best[m];
            }
        }
    };
    switch (MP) {
    case 8:
        pass(std::integral_constant<u32, 8>{});
        break;
    case 16:
        pass(std::integral_constant<u32, 16>{});
        break;
    case 24:
        pass(std::integral_constant<u32, 24>{});
        break;
    case 32:
        pass(std::integral_constant<u32, 32>{});
        break;
    case 40:
        pass(std::integral_constant<u32, 40>{});
        break;
    case 48:
        pass(std::integral_constant<u32, 48>{});
        break;
    case 56:
        pass(std::integral_constant<u32, 56>{});
        break;
    case 64:
        pass(std::integral_constant<u32, 64>{});
        break;
    default:
        panic("retimeAll lane count ", MP, " has no instantiation");
    }

    std::vector<RetimeResult> results(M);
    for (u32 m = 0; m < M; ++m) {
        results[m].model = models[m].name;
        results[m].ops = g.num_ops;
        if (g.num_ops != 0) {
            const u32 last =
                far[size_t{result_slot_} * MP + m];
            results[m].cycles = Cycle{last / tpc} + 1;
        }
    }
    return results;
}

} // namespace redsoc
