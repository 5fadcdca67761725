#include "predictors/width_predictor.h"

#include <algorithm>

#include "common/bitutils.h"
#include "common/logging.h"

namespace redsoc {

WidthPredictor::WidthPredictor(WidthPredictorConfig config)
    : config_(config),
      max_confidence_(static_cast<u8>((1u << config.confidence_bits) - 1)),
      table_(config.entries)
{
    fatal_if(!isPowerOfTwo(config.entries),
             "width predictor entries must be a power of two");
    fatal_if(config.confidence_bits == 0 || config.confidence_bits > 8,
             "bad confidence width");
}

unsigned
WidthPredictor::indexOf(u64 pc) const
{
    return static_cast<unsigned>(pc & (config_.entries - 1));
}

WidthClass
WidthPredictor::predict(u64 pc) const
{
    ++predictions_;
    const Entry &e = table_[indexOf(pc)];
    if (e.confidence < max_confidence_)
        return WidthClass::W64; // conservative: assume maximum size
    return e.width;
}

bool
WidthPredictor::update(u64 pc, WidthClass actual)
{
    Entry &e = table_[indexOf(pc)];
    const WidthClass predicted =
        e.confidence < max_confidence_ ? WidthClass::W64 : e.width;

    const bool aggressive_wrong = actual > predicted;
    if (actual > predicted)
        ++aggressive_;
    else if (actual < predicted)
        ++conservative_;

    if (e.width == actual) {
        if (e.confidence < max_confidence_)
            ++e.confidence;
    } else {
        e.width = actual;
        e.confidence = 0;
    }
    return aggressive_wrong;
}

u64
WidthPredictor::stateBytes() const
{
    // 2 bits of width class + confidence bits per entry.
    const u64 bits = u64{config_.entries} * (2 + config_.confidence_bits);
    return (bits + 7) / 8;
}

void
WidthPredictor::resetStats()
{
    predictions_ = aggressive_ = conservative_ = 0;
}

void
WidthPredictor::reset()
{
    std::fill(table_.begin(), table_.end(), Entry{});
    resetStats();
}

} // namespace redsoc
