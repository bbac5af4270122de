#include "sched/update.hpp"

namespace cicero::sched {

void Update::serialize(util::Writer& w) const { util::Encoder{w}(*this); }

}  // namespace cicero::sched
