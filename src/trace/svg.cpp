#include "src/trace/svg.h"

#include <fstream>
#include <sstream>

namespace calu::trace {
namespace {

// Paper-style palette: Figure 4 draws panel factorizations red and updates
// green; we add distinct shades for L/U/swap lanes.
const char* kind_color(Kind k) {
  switch (k) {
    case Kind::P: return "#d62728";     // red
    case Kind::L: return "#ff9896";     // light red
    case Kind::U: return "#98df8a";     // light green
    case Kind::S: return "#2ca02c";     // green
    case Kind::Swap: return "#1f77b4";   // blue
    case Kind::Other: return "#7f7f7f";
    case Kind::PackL: return "#c5b0d5";  // light purple
    case Kind::PackU: return "#9467bd";  // purple
  }
  return "#7f7f7f";
}

}  // namespace

std::string svg_timeline(const Recorder& rec, int width_px, int lane_px) {
  const double span = rec.makespan();
  const int lanes = rec.threads();
  const int h = lanes * lane_px + 20;
  std::ostringstream os;
  os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << width_px + 40
     << "' height='" << h << "'>\n";
  os << "<rect x='0' y='0' width='" << width_px + 40 << "' height='" << h
     << "' fill='white'/>\n";
  if (span > 0.0) {
    for (int t = 0; t < lanes; ++t) {
      const int y = 10 + t * lane_px;
      os << "<text x='2' y='" << y + lane_px - 6
         << "' font-size='9' font-family='monospace'>T" << t << "</text>\n";
      for (const Event& e : rec.thread_events(t)) {
        const double x = 30 + e.t0 / span * width_px;
        const double w = (e.t1 - e.t0) / span * width_px;
        os << "<rect x='" << x << "' y='" << y << "' width='"
           << (w < 0.3 ? 0.3 : w) << "' height='" << lane_px - 2
           << "' fill='" << kind_color(e.kind) << "'";
        // Promoted look-ahead tasks get a gold outline so panel overlap
        // is visible at a glance; other dynamic or stolen tasks a thin
        // black one.
        if (e.promoted)
          os << " stroke='#ffbf00' stroke-width='0.8'";
        else if (e.dynamic)
          os << " stroke='black' stroke-width='0.3'";
        os << "/>\n";
      }
    }
  }
  os << "</svg>\n";
  return os.str();
}

bool write_svg_timeline(const std::string& path, const Recorder& rec,
                        int width_px, int lane_px) {
  std::ofstream f(path);
  if (!f) return false;
  f << svg_timeline(rec, width_px, lane_px);
  return static_cast<bool>(f);
}

}  // namespace calu::trace
