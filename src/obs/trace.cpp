#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>

namespace cicero::obs {

namespace {

// Minimal JSON string escaping (names come from code, but node names may
// carry arbitrary topology labels).
void write_escaped(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_args(std::ostream& out, const TraceArgs& args) {
  out << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << args[i].first << "\":" << args[i].second;
  }
  out << '}';
}

// Chrome trace timestamps are microseconds; keep sub-us precision.
double to_trace_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void Tracer::push(Event e) {
  if (event_cap_ != 0 && events_.size() >= event_cap_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void Tracer::set_process_name(TracePid pid, std::string name) {
  if (!enabled_) return;
  Event e;
  e.phase = 'M';
  e.pid = pid;
  e.name = "process_name";
  e.id = std::move(name);
  push(std::move(e));
}

void Tracer::set_thread_name(TracePid pid, TraceTid tid, std::string name) {
  if (!enabled_) return;
  Event e;
  e.phase = 'M';
  e.pid = pid;
  e.tid = tid;
  e.name = "thread_name";
  e.id = std::move(name);
  push(std::move(e));
}

void Tracer::complete(TracePid pid, TraceTid tid, const char* name, std::int64_t start_ns,
                      std::int64_t dur_ns, TraceArgs args) {
  if (!enabled_) return;
  Event e;
  e.phase = 'X';
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.name = name;
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::instant(TracePid pid, TraceTid tid, const char* name, TraceArgs args) {
  if (!enabled_) return;
  Event e;
  e.phase = 'i';
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = now();
  e.name = name;
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::keyed(char phase, const char* cat, const std::string& id, const char* name,
                   TracePid pid, TraceTid tid, std::int64_t ts_ns, TraceArgs args) {
  if (!enabled_) return;
  Event e;
  e.phase = phase;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = ts_ns >= 0 ? ts_ns : now();
  e.name = name;
  e.cat = cat;
  e.id = id;
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::async_begin(const char* cat, const std::string& id, const char* name,
                         TracePid pid, TraceTid tid, TraceArgs args, std::int64_t ts_ns) {
  keyed('b', cat, id, name, pid, tid, ts_ns, std::move(args));
}

void Tracer::async_end(const char* cat, const std::string& id, const char* name, TracePid pid,
                       TraceTid tid, std::int64_t ts_ns) {
  keyed('e', cat, id, name, pid, tid, ts_ns);
}

void Tracer::flow_start(const char* cat, const std::string& id, const char* name, TracePid pid,
                        TraceTid tid, std::int64_t ts_ns) {
  keyed('s', cat, id, name, pid, tid, ts_ns);
}

void Tracer::flow_step(const char* cat, const std::string& id, const char* name, TracePid pid,
                       TraceTid tid, std::int64_t ts_ns) {
  keyed('t', cat, id, name, pid, tid, ts_ns);
}

void Tracer::flow_end(const char* cat, const std::string& id, const char* name, TracePid pid,
                      TraceTid tid, std::int64_t ts_ns) {
  keyed('f', cat, id, name, pid, tid, ts_ns);
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const Event& e : events_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"" << e.phase << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    switch (e.phase) {
      case 'M':
        out << ",\"name\":";
        write_escaped(out, e.name);
        out << ",\"args\":{\"name\":";
        write_escaped(out, e.id);
        out << '}';
        break;
      case 'X':
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", to_trace_us(e.ts_ns),
                      to_trace_us(e.dur_ns));
        out << buf << ",\"name\":";
        write_escaped(out, e.name);
        out << ',';
        write_args(out, e.args);
        break;
      case 'i':
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", to_trace_us(e.ts_ns));
        out << buf << ",\"s\":\"t\",\"name\":";
        write_escaped(out, e.name);
        out << ',';
        write_args(out, e.args);
        break;
      case 'b':
      case 'e':
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", to_trace_us(e.ts_ns));
        out << buf << ",\"cat\":\"" << (e.cat != nullptr ? e.cat : "") << "\",\"id\":";
        write_escaped(out, e.id);
        out << ",\"name\":";
        write_escaped(out, e.name);
        out << ',';
        write_args(out, e.args);
        break;
      case 's':
      case 't':
      case 'f':
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", to_trace_us(e.ts_ns));
        out << buf << ",\"cat\":\"" << (e.cat != nullptr ? e.cat : "") << "\",\"id\":";
        write_escaped(out, e.id);
        out << ",\"name\":";
        write_escaped(out, e.name);
        // Binding point "e" attaches the arrowhead to the end of the
        // enclosing slice, which is where the receive actually happened.
        if (e.phase == 'f') out << ",\"bp\":\"e\"";
        break;
      default:
        break;
    }
    out << '}';
  }
  out << "]}\n";
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f);
  return static_cast<bool>(f);
}

}  // namespace cicero::obs
