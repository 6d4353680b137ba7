#include "simnet/trace.h"

#include <ostream>

namespace pardsm {

void Trace::record(TraceEntry e) {
  if (!enabled_) return;
  entries_.push_back(std::move(e));
}

void Trace::dump(std::ostream& os) const {
  for (const auto& e : entries_) {
    os << e.when.us << "us " << to_string(e.type) << " p" << e.from;
    if (e.to != kNoProcess) os << " -> p" << e.to;
    os << " [" << e.kind << "] #" << e.msg_id << '\n';
  }
}

const char* to_string(TraceEntry::Type t) {
  switch (t) {
    case TraceEntry::Type::kSend:
      return "SEND";
    case TraceEntry::Type::kDeliver:
      return "DELV";
    case TraceEntry::Type::kDrop:
      return "DROP";
    case TraceEntry::Type::kTimer:
      return "TIMR";
  }
  return "????";
}

}  // namespace pardsm
