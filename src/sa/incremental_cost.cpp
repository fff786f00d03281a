#include "sa/incremental_cost.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace aplace::sa {
namespace {

constexpr std::uint32_t kUnstamped = std::numeric_limits<std::uint32_t>::max();

}  // namespace

IncrementalCost::IncrementalCost(
    std::shared_ptr<const netlist::CompiledCircuit> compiled)
    : compiled_(std::move(compiled)),
      eval_(compiled_->circuit()),
      state_(compiled_->circuit()),
      trial_state_(compiled_->circuit()) {
  // Flatten the positional constraints once; the block adjacency comes with
  // configure_blocks() when the caller knows the block structure.
  for (std::size_t k = 0; k < compiled_->num_alignments(); ++k) {
    constraints_.push_back(ConstraintRef{ConstraintRef::Kind::Alignment,
                                         static_cast<std::uint32_t>(k)});
  }
  for (std::size_t k = 0; k < compiled_->num_orderings(); ++k) {
    constraints_.push_back(ConstraintRef{ConstraintRef::Kind::Ordering,
                                         static_cast<std::uint32_t>(k)});
  }
  for (std::size_t k = 0; k < compiled_->num_centroids(); ++k) {
    constraints_.push_back(ConstraintRef{ConstraintRef::Kind::Centroid,
                                         static_cast<std::uint32_t>(k)});
  }

  const std::size_t n = compiled_->num_devices();
  const std::size_t num_nets = compiled_->num_nets();
  off_.assign(n, {});
  orient_.assign(n, {});
  block_of_.assign(n, 0);
  net_xspan_.assign(num_nets, 0.0);
  net_yspan_.assign(num_nets, 0.0);
  trial_xspan_.assign(num_nets, 0.0);
  trial_yspan_.assign(num_nets, 0.0);
  cons_residual_.assign(constraints_.size(), 0.0);
  trial_cons_residual_.assign(constraints_.size(), 0.0);
  net_epoch_.assign(num_nets, 0);
  cons_epoch_.assign(constraints_.size(), 0);

  // Hot-loop views straight into the compiled snapshot's flat arrays.
  net_weight_ = compiled_->net_weight();
  dev_w_ = compiled_->dev_width();
  dev_h_ = compiled_->dev_height();
  dev_halfw_ = compiled_->dev_half_width();
  dev_halfh_ = compiled_->dev_half_height();
}

void IncrementalCost::configure_blocks(
    const std::vector<std::vector<Member>>& blocks) {
  num_blocks_ = blocks.size();
  const std::size_t num_nets = compiled_->num_nets();

  // Device <-> block maps.
  block_dev_off_.assign(num_blocks_ + 1, 0);
  block_dev_.clear();
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    for (const Member& m : blocks[b]) {
      block_of_[m.device.index()] = b;
      block_dev_.push_back(m.device);
    }
    block_dev_off_[b + 1] = block_dev_.size();
  }
  APLACE_DCHECK(block_dev_.size() == compiled_->num_devices());

  // block -> incident nets (deduplicated, ascending net order per block).
  std::vector<std::uint32_t> stamp(num_nets, kUnstamped);
  block_net_off_.assign(num_blocks_ + 1, 0);
  block_net_.clear();
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    const std::size_t begin = block_net_.size();
    for (std::size_t k = block_dev_off_[b]; k < block_dev_off_[b + 1]; ++k) {
      for (std::uint32_t net : compiled_->device_nets(block_dev_[k].index())) {
        if (stamp[net] != static_cast<std::uint32_t>(b)) {
          stamp[net] = static_cast<std::uint32_t>(b);
          block_net_.push_back(net);
        }
      }
    }
    std::sort(block_net_.begin() + static_cast<std::ptrdiff_t>(begin),
              block_net_.end());
    block_net_off_[b + 1] = block_net_.size();
  }

  // net -> RelRef range (net-major, blocks ascending within a net), plus
  // the slot -> rel_ position map the refresh path uses.
  net_block_off_.assign(num_nets + 1, 0);
  for (std::uint32_t net : block_net_) ++net_block_off_[net + 1];
  for (std::size_t i = 0; i < num_nets; ++i) {
    net_block_off_[i + 1] += net_block_off_[i];
  }
  rel_.assign(block_net_.size(), {});
  netpos_of_slot_.assign(block_net_.size(), 0);
  {
    std::vector<std::size_t> cursor(net_block_off_.begin(),
                                    net_block_off_.end() - 1);
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      for (std::size_t s = block_net_off_[b]; s < block_net_off_[b + 1]; ++s) {
        const std::size_t pos = cursor[block_net_[s]]++;
        rel_[pos].block = static_cast<std::uint32_t>(b);
        netpos_of_slot_[s] = static_cast<std::uint32_t>(pos);
      }
    }
  }

  // Per-slot pin lists, in net pin order (so refresh_rel_boxes reproduces
  // the min/max sequence a full-pin walk would, bit for bit). Fed from the
  // compiled net->pin CSR, which preserves declaration order.
  const std::span<const std::uint32_t> pin_device = compiled_->pin_device();
  const std::span<const double> pin_off_x = compiled_->pin_offset_x();
  const std::span<const double> pin_off_y = compiled_->pin_offset_y();
  slot_pin_off_.assign(block_net_.size() + 1, 0);
  slot_pin_.clear();
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    for (std::size_t s = block_net_off_[b]; s < block_net_off_[b + 1]; ++s) {
      for (std::uint32_t pid : compiled_->net_pins(block_net_[s])) {
        const std::uint32_t dev = pin_device[pid];
        if (block_of_[dev] != b) continue;
        slot_pin_.push_back(
            SlotPin{{pin_off_x[pid], pin_off_y[pid]}, dev, 0});
      }
      slot_pin_off_[s + 1] = slot_pin_.size();
    }
  }

  // block -> flat constraints (deduplicated per constraint) and the
  // reverse constraint -> unique blocks.
  std::vector<std::vector<std::uint32_t>> per_block(num_blocks_);
  std::vector<std::uint32_t> cons_devs;
  const netlist::CompiledCircuit& cc = *compiled_;
  cons_block_off_.assign(1, 0);
  cons_block_.clear();
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    cons_devs.clear();
    const std::uint32_t idx = constraints_[c].index;
    switch (constraints_[c].kind) {
      case ConstraintRef::Kind::Alignment:
        cons_devs = {cc.align_a()[idx], cc.align_b()[idx]};
        break;
      case ConstraintRef::Kind::Ordering: {
        const std::span<const std::uint32_t> devs = cc.order_devices(idx);
        cons_devs.assign(devs.begin(), devs.end());
        break;
      }
      case ConstraintRef::Kind::Centroid:
        cons_devs = {cc.cent_a1()[idx], cc.cent_a2()[idx], cc.cent_b1()[idx],
                     cc.cent_b2()[idx]};
        break;
    }
    for (std::uint32_t d : cons_devs) {
      std::vector<std::uint32_t>& list = per_block[block_of_[d]];
      if (list.empty() || list.back() != static_cast<std::uint32_t>(c)) {
        list.push_back(static_cast<std::uint32_t>(c));
      }
    }
    const std::size_t begin = cons_block_.size();
    for (std::uint32_t d : cons_devs) {
      cons_block_.push_back(static_cast<std::uint32_t>(block_of_[d]));
    }
    std::sort(cons_block_.begin() + static_cast<std::ptrdiff_t>(begin),
              cons_block_.end());
    cons_block_.erase(
        std::unique(cons_block_.begin() + static_cast<std::ptrdiff_t>(begin),
                    cons_block_.end()),
        cons_block_.end());
    cons_block_off_.push_back(cons_block_.size());
  }
  block_cons_off_.assign(num_blocks_ + 1, 0);
  block_cons_.clear();
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    block_cons_.insert(block_cons_.end(), per_block[b].begin(),
                       per_block[b].end());
    block_cons_off_[b + 1] = block_cons_.size();
  }

  // Incident-block bitmasks for the move loop's rigid test.
  use_mask_ = num_blocks_ <= 64;
  net_mask_.assign(num_nets, 0);
  cons_mask_.assign(constraints_.size(), 0);
  if (use_mask_) {
    for (std::size_t i = 0; i < num_nets; ++i) {
      for (std::size_t k = net_block_off_[i]; k < net_block_off_[i + 1]; ++k) {
        net_mask_[i] |= std::uint64_t{1} << rel_[k].block;
      }
    }
    for (std::size_t c = 0; c < constraints_.size(); ++c) {
      for (std::size_t k = cons_block_off_[c]; k < cons_block_off_[c + 1];
           ++k) {
        cons_mask_[c] |= std::uint64_t{1} << cons_block_[k];
      }
    }
  }

  ox_.assign(num_blocks_, 0.0);
  oy_.assign(num_blocks_, 0.0);
}

void IncrementalCost::refresh_rel_boxes(std::size_t b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t s = block_net_off_[b]; s < block_net_off_[b + 1]; ++s) {
    double xlo = kInf, ylo = kInf, xhi = -kInf, yhi = -kInf;
    for (std::size_t p = slot_pin_off_[s]; p < slot_pin_off_[s + 1]; ++p) {
      const SlotPin& sp = slot_pin_[p];
      const std::size_t d = sp.dev;
      const geom::Point local = geom::apply_orientation(
          sp.offset, dev_w_[d], dev_h_[d], orient_[d]);
      const geom::Point& o = off_[d];
      const double px = o.x - dev_halfw_[d] + local.x;
      const double py = o.y - dev_halfh_[d] + local.y;
      xlo = std::min(xlo, px);
      xhi = std::max(xhi, px);
      ylo = std::min(ylo, py);
      yhi = std::max(yhi, py);
    }
    APLACE_DCHECK(xlo <= xhi);  // the net is in the block's list, so it has
                                // at least one pin on a member device
    RelRef& r = rel_[netpos_of_slot_[s]];
    r.xlo = xlo;
    r.xhi = xhi;
    r.ylo = ylo;
    r.yhi = yhi;
  }
}

void IncrementalCost::net_spans(const double* ox, const double* oy,
                                std::uint32_t net, double& xs,
                                double& ys) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double xlo = kInf, ylo = kInf, xhi = -kInf, yhi = -kInf;
  for (std::size_t k = net_block_off_[net]; k < net_block_off_[net + 1]; ++k) {
    const RelRef& r = rel_[k];
    const double bx = ox[r.block];
    const double by = oy[r.block];
    xlo = std::min(xlo, bx + r.xlo);
    xhi = std::max(xhi, bx + r.xhi);
    ylo = std::min(ylo, by + r.ylo);
    yhi = std::max(yhi, by + r.yhi);
  }
  xs = xhi - xlo;
  ys = yhi - ylo;
}

double IncrementalCost::net_xspan_of(const double* ox,
                                     std::uint32_t net) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double xlo = kInf, xhi = -kInf;
  for (std::size_t k = net_block_off_[net]; k < net_block_off_[net + 1]; ++k) {
    const RelRef& r = rel_[k];
    const double bx = ox[r.block];
    xlo = std::min(xlo, bx + r.xlo);
    xhi = std::max(xhi, bx + r.xhi);
  }
  return xhi - xlo;
}

double IncrementalCost::net_yspan_of(const double* oy,
                                     std::uint32_t net) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double ylo = kInf, yhi = -kInf;
  for (std::size_t k = net_block_off_[net]; k < net_block_off_[net + 1]; ++k) {
    const RelRef& r = rel_[k];
    const double by = oy[r.block];
    ylo = std::min(ylo, by + r.ylo);
    yhi = std::max(yhi, by + r.yhi);
  }
  return yhi - ylo;
}

double IncrementalCost::constraint_residual(const double* ox, const double* oy,
                                            const ConstraintRef& c) const {
  // Same center-based formulas as netlist::Evaluator, fed from block origin
  // + in-block offset (the exact sum the realize path produces, so these
  // match an Evaluator run on a realized Placement bit for bit; full_cost()
  // cross-checks that). Constraint operands come from the compiled flat
  // tables, which preserve registration order.
  const netlist::CompiledCircuit& cc = *compiled_;
  const auto pos = [&](std::uint32_t d) {
    return position_from(ox, oy, DeviceId{d});
  };
  switch (c.kind) {
    case ConstraintRef::Kind::Alignment: {
      const std::uint32_t a = cc.align_a()[c.index];
      const std::uint32_t b = cc.align_b()[c.index];
      const geom::Point pa = pos(a);
      const geom::Point pb = pos(b);
      switch (cc.align_kind()[c.index]) {
        case netlist::AlignmentKind::Bottom:
          return std::abs((pa.y - dev_halfh_[a]) - (pb.y - dev_halfh_[b]));
        case netlist::AlignmentKind::VerticalCenter:
          return std::abs(pa.x - pb.x);
        case netlist::AlignmentKind::HorizontalCenter:
          return std::abs(pa.y - pb.y);
      }
      return 0.0;
    }
    case ConstraintRef::Kind::Ordering: {
      const std::span<const std::uint32_t> devs = cc.order_devices(c.index);
      const bool l2r =
          cc.order_direction(c.index) == netlist::OrderDirection::LeftToRight;
      double res = 0;
      for (std::size_t i = 0; i + 1 < devs.size(); ++i) {
        const std::uint32_t a = devs[i];
        const std::uint32_t b = devs[i + 1];
        if (l2r) {
          const double gap =
              (pos(b).x - dev_halfw_[b]) - (pos(a).x + dev_halfw_[a]);
          if (gap < 0) res += -gap;
        } else {
          const double gap =
              (pos(b).y - dev_halfh_[b]) - (pos(a).y + dev_halfh_[a]);
          if (gap < 0) res += -gap;
        }
      }
      return res;
    }
    case ConstraintRef::Kind::Centroid: {
      const geom::Point a1 = pos(cc.cent_a1()[c.index]);
      const geom::Point a2 = pos(cc.cent_a2()[c.index]);
      const geom::Point b1 = pos(cc.cent_b1()[c.index]);
      const geom::Point b2 = pos(cc.cent_b2()[c.index]);
      return std::abs((a1.x + a2.x) - (b1.x + b2.x)) +
             std::abs((a1.y + a2.y) - (b1.y + b2.y));
    }
  }
  return 0.0;
}

double IncrementalCost::combine(double hpwl, double area,
                                double penalty) const {
  return weights_.area_weight * area / weights_.area0 +
         (1.0 - weights_.area_weight) * hpwl / weights_.hpwl0 +
         weights_.constraint_weight * penalty / weights_.penalty0;
}

void IncrementalCost::reset(const std::vector<std::vector<Member>>& blocks,
                            const double* ox, const double* oy, double pack_w,
                            double pack_h) {
  APLACE_DCHECK(blocks.size() == num_blocks_);
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    for (const Member& m : blocks[b]) {
      APLACE_DCHECK(block_of_[m.device.index()] == b);
      off_[m.device.index()] = m.center;
      orient_[m.device.index()] = m.orientation;
    }
    refresh_rel_boxes(b);
  }
  std::copy(ox, ox + num_blocks_, ox_.begin());
  std::copy(oy, oy + num_blocks_, oy_.begin());
  pack_w_ = pack_w;
  pack_h_ = pack_h;

  hpwl_total_ = 0;
  for (std::size_t i = 0; i < net_xspan_.size(); ++i) {
    net_spans(ox_.data(), oy_.data(), static_cast<std::uint32_t>(i),
              net_xspan_[i], net_yspan_[i]);
    hpwl_total_ += net_weight_[i] * (net_xspan_[i] + net_yspan_[i]);
  }
  penalty_total_ = 0;
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    cons_residual_[c] =
        constraint_residual(ox_.data(), oy_.data(), constraints_[c]);
    penalty_total_ += cons_residual_[c];
  }

  member_undo_.clear();
  rel_undo_.clear();
  in_trial_ = false;
  trial_evaluated_ = false;
  state_valid_ = false;
  stats_ = {};
}

void IncrementalCost::begin_trial(const double* tx, const double* ty, double w,
                                  double h) {
  APLACE_DCHECK(!in_trial_);
  ++epoch_;  // invalidates the per-trial force stamps
  tx_ = tx;
  ty_ = ty;
  trial_w_ = w;
  trial_h_ = h;
  in_trial_ = true;
  trial_evaluated_ = false;
}

void IncrementalCost::refresh_block(std::size_t b,
                                    const std::vector<Member>& members) {
  APLACE_DCHECK(in_trial_ && b < num_blocks_);
  APLACE_DCHECK(members.size() == block_dev_off_[b + 1] - block_dev_off_[b]);
  for (const Member& m : members) {
    const std::size_t d = m.device.index();
    APLACE_DCHECK(block_of_[d] == b);
    member_undo_.push_back(MemberUndo{m.device, off_[d], orient_[d]});
    off_[d] = m.center;
    orient_[d] = m.orientation;
  }
  for (std::size_t s = block_net_off_[b]; s < block_net_off_[b + 1]; ++s) {
    const std::uint32_t pos = netpos_of_slot_[s];
    const RelRef& r = rel_[pos];
    rel_undo_.push_back(RelBoxUndo{pos, r.xlo, r.xhi, r.ylo, r.yhi});
    net_epoch_[block_net_[s]] = epoch_;  // stale span: force re-evaluation
  }
  for (std::size_t k = block_cons_off_[b]; k < block_cons_off_[b + 1]; ++k) {
    cons_epoch_[block_cons_[k]] = epoch_;
  }
  refresh_rel_boxes(b);
  stats_.devices_staged += members.size();
}

double IncrementalCost::trial_cost() {
  APLACE_DCHECK(in_trial_ && !trial_evaluated_);
  // One sweep over every net and constraint: an entry whose blocks all
  // share one per-axis origin delta keeps its cached value (unmoved nets
  // have all-zero deltas, so they fall out of the same comparison); only
  // disagreeing axes are re-boxed. Totals are fresh sums over the per-net
  // values, so nothing drifts across moves.
  const double* tx = tx_;
  const double* ty = ty_;
  const double* ox = ox_.data();
  const double* oy = oy_.data();
  const std::size_t num_nets = net_xspan_.size();
  // Moved-block mask: one AND decides "no incident block moved" (the
  // all-zero-delta case) without walking the net's delta list. Nets that do
  // hit a moved block still get the per-axis uniform-translation test.
  std::uint64_t moved = 0;
  if (use_mask_) {
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      moved |= static_cast<std::uint64_t>((tx[b] != ox[b]) | (ty[b] != oy[b]))
               << b;
    }
  }
  std::uint64_t evaluated = 0;
  double hp = 0;
  for (std::size_t net = 0; net < num_nets; ++net) {
    const std::size_t k0 = net_block_off_[net];
    const std::size_t k1 = net_block_off_[net + 1];
    bool rx = net_epoch_[net] != epoch_;  // stamped => stale caches
    bool ry = rx;
    const std::uint64_t hit = use_mask_ ? (net_mask_[net] & moved) : 1;
    if (rx && hit != 0) {
      const std::uint32_t b0 = rel_[k0].block;
      const double dx0 = tx[b0] - ox[b0];
      const double dy0 = ty[b0] - oy[b0];
      for (std::size_t k = k0 + 1; k < k1; ++k) {
        // Branchless accumulate: nets are a handful of blocks, so finishing
        // the walk beats an unpredictable early exit.
        const std::uint32_t b = rel_[k].block;
        rx = rx & (tx[b] - ox[b] == dx0);
        ry = ry & (ty[b] - oy[b] == dy0);
      }
    }
    double xs, ys;
    if (rx & ry) {
      xs = net_xspan_[net];
      ys = net_yspan_[net];
    } else {
      ++evaluated;
      if (!(rx | ry)) {
        net_spans(tx, ty, static_cast<std::uint32_t>(net), xs, ys);
      } else if (!rx) {
        xs = net_xspan_of(tx, static_cast<std::uint32_t>(net));
        ys = net_yspan_[net];
      } else {
        xs = net_xspan_[net];
        ys = net_yspan_of(ty, static_cast<std::uint32_t>(net));
      }
    }
    trial_xspan_[net] = xs;
    trial_yspan_[net] = ys;
    hp += net_weight_[net] * (xs + ys);
  }
  double pen = 0;
  for (std::size_t cid = 0; cid < constraints_.size(); ++cid) {
    bool rigid = cons_epoch_[cid] != epoch_;
    const std::uint64_t hit = use_mask_ ? (cons_mask_[cid] & moved) : 1;
    if (rigid && hit != 0) {
      // Residuals only see center differences, so a common translation of
      // every involved block leaves them exact.
      const std::size_t k0 = cons_block_off_[cid];
      const std::size_t k1 = cons_block_off_[cid + 1];
      const std::uint32_t b0 = cons_block_[k0];
      const double dx0 = tx[b0] - ox[b0];
      const double dy0 = ty[b0] - oy[b0];
      for (std::size_t k = k0 + 1; k < k1; ++k) {
        const std::uint32_t b = cons_block_[k];
        rigid = rigid & ((tx[b] - ox[b] == dx0) & (ty[b] - oy[b] == dy0));
      }
    }
    double v;
    if (rigid) {
      v = cons_residual_[cid];
    } else {
      v = constraint_residual(tx, ty, constraints_[cid]);
      ++stats_.constraints_evaluated;
    }
    trial_cons_residual_[cid] = v;
    pen += v;
  }
  trial_hpwl_total_ = hp;
  trial_penalty_total_ = pen;
  trial_evaluated_ = true;

  stats_.evals += 1;
  stats_.nets_evaluated += evaluated;
  stats_.nets_total += num_nets;

  return combine(hp, trial_w_ * trial_h_, pen);
}

void IncrementalCost::commit() {
  APLACE_DCHECK(trial_evaluated_);
  // trial_cost rewrote the full trial arrays, so committing is a swap; the
  // stale values left in the trial buffers are overwritten next move.
  net_xspan_.swap(trial_xspan_);
  net_yspan_.swap(trial_yspan_);
  cons_residual_.swap(trial_cons_residual_);
  hpwl_total_ = trial_hpwl_total_;
  penalty_total_ = trial_penalty_total_;
  pack_w_ = trial_w_;
  pack_h_ = trial_h_;
  std::copy(tx_, tx_ + num_blocks_, ox_.begin());
  std::copy(ty_, ty_ + num_blocks_, oy_.begin());
  member_undo_.clear();  // refreshed offsets/boxes become the committed ones
  rel_undo_.clear();
  in_trial_ = false;
  trial_evaluated_ = false;
  state_valid_ = false;
}

void IncrementalCost::rollback() {
  APLACE_DCHECK(in_trial_);
  // Reverse order, so a device touched twice restores its original state.
  for (std::size_t k = member_undo_.size(); k-- > 0;) {
    off_[member_undo_[k].device.index()] = member_undo_[k].off;
    orient_[member_undo_[k].device.index()] = member_undo_[k].orientation;
  }
  for (std::size_t k = rel_undo_.size(); k-- > 0;) {
    const RelBoxUndo& u = rel_undo_[k];
    RelRef& r = rel_[u.pos];
    r.xlo = u.xlo;
    r.xhi = u.xhi;
    r.ylo = u.ylo;
    r.yhi = u.yhi;
  }
  member_undo_.clear();
  rel_undo_.clear();
  in_trial_ = false;
  trial_evaluated_ = false;
}

double IncrementalCost::cost() const {
  return combine(hpwl_total_, pack_w_ * pack_h_, penalty_total_);
}

void IncrementalCost::materialize(const double* ox, const double* oy,
                                  netlist::Placement& pl) {
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    for (std::size_t k = block_dev_off_[b]; k < block_dev_off_[b + 1]; ++k) {
      const DeviceId d = block_dev_[k];
      pl.set_position(d, {ox[b] + off_[d.index()].x,
                          oy[b] + off_[d.index()].y});
      pl.set_orientation(d, orient_[d.index()]);
    }
  }
}

const netlist::Placement& IncrementalCost::placement() {
  APLACE_DCHECK(!in_trial_);  // committed view only; trial_placement()
                              // serves the staged state
  if (!state_valid_) {
    materialize(ox_.data(), oy_.data(), state_);
    state_valid_ = true;
  }
  return state_;
}

const netlist::Placement& IncrementalCost::trial_placement() {
  APLACE_DCHECK(in_trial_);
  materialize(tx_, ty_, trial_state_);
  return trial_state_;
}

double IncrementalCost::full_cost() {
  // Independent recompute: materialized Placement + the shared Evaluator
  // (per-pin net boxes, not the relative-box caches), so it cross-checks
  // both the span bookkeeping and the engine's residual formulas.
  APLACE_DCHECK(!in_trial_);
  const netlist::Placement& pl = placement();
  const double hpwl = pl.total_hpwl();
  double penalty = 0;
  const netlist::ConstraintSet& cs = compiled_->circuit().constraints();
  for (const ConstraintRef& c : constraints_) {
    switch (c.kind) {
      case ConstraintRef::Kind::Alignment:
        penalty += eval_.alignment_residual(pl, cs.alignments[c.index]);
        break;
      case ConstraintRef::Kind::Ordering:
        penalty += eval_.ordering_residual(pl, cs.orderings[c.index]);
        break;
      case ConstraintRef::Kind::Centroid:
        penalty += eval_.centroid_residual(pl, cs.common_centroids[c.index]);
        break;
    }
  }
  return combine(hpwl, pack_w_ * pack_h_, penalty);
}

}  // namespace aplace::sa
