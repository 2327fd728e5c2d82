#include "view/reduction.h"

#include <utility>
#include <vector>

#include "common/str_util.h"
#include "sequence/derive_cumulative.h"
#include "sequence/minoa.h"
#include "sequence/reporting.h"

namespace rfv {

namespace {

/// Loads a partitioned view's content as a PartitionedSequence: each
/// partition's stored complete sequence is reduced to its raw data — the
/// derivation the §6.2 lemma licenses for complete reporting functions.
Result<PartitionedSequence> LoadPartitionedSequence(
    const ViewManager& views, const SequenceViewDef& def) {
  std::vector<PositionalGroup> groups;
  RFV_ASSIGN_OR_RETURN(groups, views.ReadContent(def));
  PartitionedSequence sequence(def.window, def.fn);
  for (PositionalGroup& group : groups) {
    std::vector<int64_t> key;
    key.reserve(group.key.size());
    for (const Value& v : group.key) {
      if (v.is_null() || v.type() != DataType::kInt64) {
        return Status::NotDerivable(
            "partitioning reduction requires integer partition keys");
      }
      key.push_back(v.AsInt());
    }
    const int64_t last =
        group.first + static_cast<int64_t>(group.values.size()) - 1;
    const int64_t n =
        def.window.is_cumulative() ? last : last - def.window.l();
    const Sequence stored(def.window, def.fn, n, group.first,
                          std::move(group.values));
    if (!stored.IsComplete()) {
      return Status::NotDerivable(
          "partitioning reduction requires a complete reporting function "
          "(header/trailer per partition)");
    }
    std::vector<SeqValue> raw;
    if (def.window.is_cumulative()) {
      RFV_ASSIGN_OR_RETURN(raw, RawFromCumulative(stored));
    } else {
      RFV_ASSIGN_OR_RETURN(raw, RawFromSlidingLinear(stored));
    }
    RFV_RETURN_IF_ERROR(sequence.AddPartition(std::move(key), std::move(raw)));
  }
  return sequence;
}

}  // namespace

Result<const SequenceViewDef*> ReduceViewPartitioning(
    ViewManager* views, const std::string& source_view,
    const std::string& target_view, size_t drop) {
  const SequenceViewDef* source = views->FindView(source_view);
  if (source == nullptr) {
    return Status::NotFound("view " + source_view + " is not registered");
  }
  if (source->partition_columns.empty()) {
    return Status::NotDerivable(
        "partitioning reduction requires a partitioned view");
  }
  if (drop < 1 || drop > source->partition_columns.size()) {
    return Status::InvalidArgument("invalid partition-column drop count");
  }

  PartitionedSequence loaded(source->window, source->fn);
  RFV_ASSIGN_OR_RETURN(loaded, LoadPartitionedSequence(*views, *source));
  PartitionedSequence reduced(source->window, source->fn);
  RFV_ASSIGN_OR_RETURN(reduced, loaded.ReducePartitioning(drop));

  SequenceViewDef def = *source;
  def.view_name = ToLower(target_view);
  def.partition_columns.resize(source->partition_columns.size() - drop);
  return views->StoreDerivedView(std::move(def), reduced);
}

Result<const SequenceViewDef*> ReduceViewOrdering(
    ViewManager* views, const std::string& source_view,
    const std::string& target_view, int64_t block) {
  const SequenceViewDef* source = views->FindView(source_view);
  if (source == nullptr) {
    return Status::NotFound("view " + source_view + " is not registered");
  }
  if (!source->window.is_cumulative() || source->fn != SeqAggFn::kSum) {
    return Status::NotDerivable(
        "ordering reduction is implemented for cumulative SUM views");
  }
  if (!source->partition_columns.empty()) {
    return Status::NotDerivable(
        "reduce partitioning before reducing the ordering");
  }
  if (block < 2) {
    return Status::InvalidArgument("block size must be at least 2");
  }
  if (source->n == 0 || source->n % block != 0) {
    return Status::NotDerivable(
        "the position space is not divisible into blocks of " +
        std::to_string(block));
  }

  // A cumulative view stores positions 1..n (compute.h).
  std::vector<PositionalGroup> groups;
  RFV_ASSIGN_OR_RETURN(groups, views->ReadContent(*source));
  if (groups.size() != 1 || groups[0].first != 1) {
    return Status::NotDerivable("cumulative view content is not 1..n");
  }
  // The §6.1 lemma: each coarse position collapses one block of fine
  // positions (PositionSpace models the dense ordering); the block
  // totals are the coarse sequence's raw data.
  const PositionSpace space({source->n / block, block});
  std::vector<SeqValue> totals;
  RFV_ASSIGN_OR_RETURN(totals,
                       OrderingReductionBlockTotals(space, groups[0].values, 1));
  PartitionedSequence coarse(WindowSpec::Cumulative(), SeqAggFn::kSum);
  RFV_RETURN_IF_ERROR(coarse.AddPartition({}, std::move(totals)));

  SequenceViewDef def = *source;
  def.view_name = ToLower(target_view);
  return views->StoreDerivedView(std::move(def), coarse);
}

}  // namespace rfv
