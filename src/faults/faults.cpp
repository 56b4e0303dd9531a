#include "faults/faults.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/plan_text.hpp"

namespace coreda::faults {
namespace {

using util::mix64;

std::uint64_t fnv1a64(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Pure decision hash: no draw state, so evaluation order cannot matter.
std::uint64_t decision_hash(std::uint64_t stream, std::uint64_t a,
                            std::uint64_t b, std::uint64_t salt) noexcept {
  std::uint64_t x = stream ^ mix64(a + salt);
  return mix64(x ^ mix64(b + 0x6a09e667f3bcc909ULL));
}

double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kCrashSalt = 0x243f6a8885a308d3ULL;
constexpr std::uint64_t kOffsetSalt = 0x13198a2e03707344ULL;
constexpr std::uint64_t kStallSalt = 0xa4093822299f31d0ULL;

// A plan's bounds, one copy each: FaultPlan::parse checks them per line of
// text and Injector's constructor per site of a plan built in code. Each
// returns the refusal text, or an empty string when the value is in bounds.
std::string check_probability(const std::string& key, double p,
                              const std::string& got) {
  if (p >= 0.0 && p <= 1.0) return {};
  return key + " must be in [0, 1], got '" + got + "'";
}

std::string check_delay(std::uint64_t delay_us, const std::string& got) {
  if (delay_us <= FaultPlan::kMaxDelayUs) return {};
  return "delay_us must be <= " + std::to_string(FaultPlan::kMaxDelayUs) +
         ", got '" + got + "'";
}

std::string check_window(const SiteConfig& cfg) {
  if (cfg.epoch_begin <= cfg.epoch_end) return {};
  return "epoch_begin " + std::to_string(cfg.epoch_begin) +
         " is past epoch_end " + std::to_string(cfg.epoch_end);
}

}  // namespace

// ---------------------------------------------------------------------------
// Site

bool Site::window_open() const noexcept {
  if (!armed_ || injector_ == nullptr) return false;
  const std::uint64_t ep = injector_->epoch();
  return ep >= config_.epoch_begin && ep < config_.epoch_end;
}

bool Site::should_inject(std::uint64_t user, std::uint64_t tick) noexcept {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (!window_open() || config_.rate <= 0.0) return false;
  const std::uint64_t h = decision_hash(stream_, user, tick, kCrashSalt);
  if (to_unit(h) >= config_.rate) return false;
  count_injection();
  return true;
}

void Site::crash_point(std::uint64_t user, std::uint64_t tick,
                       const std::string& detail) {
  if (hook_) hook_(detail);  // the legacy hook may throw (old contract)
  if (should_inject(user, tick)) {
    throw InjectedCrash(name_ + ": injected crash (" + detail + ")");
  }
}

std::size_t Site::corrupt_offset(std::uint64_t user, std::uint64_t tick,
                                 std::size_t len) noexcept {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (len == 0 || !window_open() || config_.rate <= 0.0) return kNoCorruption;
  const std::uint64_t h = decision_hash(stream_, user, tick, kCrashSalt);
  if (to_unit(h) >= config_.rate) return kNoCorruption;
  count_injection();
  // Sampled online mode of the every-offset sweep: a second independent
  // hash walks the record uniformly over many firings.
  return static_cast<std::size_t>(
      decision_hash(stream_, user, tick, kOffsetSalt) % len);
}

std::uint64_t Site::stall_ns(std::uint64_t lane, std::uint64_t tick) noexcept {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (!window_open() || config_.rate <= 0.0 || config_.delay_us == 0) return 0;
  const std::uint64_t h = decision_hash(stream_, lane, tick, kStallSalt);
  if (to_unit(h) >= config_.rate) return 0;
  count_injection();
  return config_.delay_us * 1000ULL;
}

// ---------------------------------------------------------------------------
// Injector

Injector::Injector(FaultPlan plan) : plan_(std::move(plan)) {
  // A plan built in code skipped parse(), so its sites meet the same bounds
  // here: an unbounded delay_us would wrap Site::stall_ns's nanoseconds.
  for (const auto& site : plan_.sites) {
    const SiteConfig& cfg = site.second;
    const auto refuse = [&site](const std::string& refusal) {
      if (!refusal.empty()) {
        throw std::invalid_argument("fault plan site '" + site.first +
                                    "': " + refusal);
      }
    };
    const std::pair<const char*, double> probabilities[] = {
        {"rate", cfg.rate},
        {"p_enter", cfg.burst.p_enter},
        {"p_exit", cfg.burst.p_exit},
        {"loss_in_good", cfg.burst.loss_in_good},
        {"loss_in_bad", cfg.burst.loss_in_bad}};
    for (const auto& [key, p] : probabilities) {
      refuse(check_probability(key, p, util::format_double(p)));
    }
    refuse(check_delay(cfg.delay_us, std::to_string(cfg.delay_us)));
    refuse(check_window(cfg));
  }
}

void Injector::attach(Site& site) {
  site.stream_ = mix64(plan_.seed ^ fnv1a64(site.name_));
  site.injector_ = this;
  const auto it = plan_.sites.find(site.name_);
  if (it != plan_.sites.end()) {
    site.config_ = it->second;
    site.armed_ = !it->second.trivial();
  } else {
    site.config_ = SiteConfig{};
    site.armed_ = false;
  }
  if (std::find(sites_.begin(), sites_.end(), &site) == sites_.end()) {
    sites_.push_back(&site);
  }
}

std::vector<Injector::SiteLog> Injector::log() const {
  std::vector<SiteLog> out;
  out.reserve(sites_.size());
  for (const Site* site : sites_) {
    out.push_back({site->name(), site->armed(), site->evaluations(),
                   site->injections()});
  }
  std::sort(out.begin(), out.end(),
            [](const SiteLog& a, const SiteLog& b) { return a.name < b.name; });
  return out;
}

void Injector::report(std::ostream& out) const {
  out << std::left << std::setw(28) << "site" << std::right << std::setw(7)
      << "armed" << std::setw(14) << "evaluations" << std::setw(12)
      << "injections" << '\n';
  for (const SiteLog& entry : log()) {
    out << std::left << std::setw(28) << entry.name << std::right
        << std::setw(7) << (entry.armed ? "yes" : "no") << std::setw(14)
        << entry.evaluations << std::setw(12) << entry.injections << '\n';
  }
}

// ---------------------------------------------------------------------------
// BurstState

void BurstState::arm(Site& site, std::uint64_t lane) noexcept {
  site_ = &site;
  rng_ = util::Rng(mix64(site.stream() ^ mix64(lane + 0x2b7e151628aed2a6ULL)));
  bad_ = false;
}

bool BurstState::drop_frame() noexcept {
  if (site_ == nullptr || !site_->window_open()) return false;
  const BurstConfig& burst = site_->config().burst;
  if (!burst.enabled()) return false;
  site_->evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (bad_) {
    if (rng_.bernoulli(burst.p_exit)) bad_ = false;
  } else {
    if (rng_.bernoulli(burst.p_enter)) bad_ = true;
  }
  const double p = bad_ ? burst.loss_in_bad : burst.loss_in_good;
  if (!rng_.bernoulli(p)) return false;
  site_->count_injection();
  return true;
}

// ---------------------------------------------------------------------------
// FaultPlan

FaultPlan FaultPlan::standard_chaos(std::uint64_t seed,
                                    std::uint64_t chaos_epochs) {
  FaultPlan plan;
  plan.seed = seed;
  const auto windowed = [chaos_epochs](SiteConfig cfg) {
    cfg.epoch_begin = 0;
    cfg.epoch_end = chaos_epochs;
    return cfg;
  };
  SiteConfig crash;
  crash.rate = 0.05;
  plan.sites["segment_store.pre_publish"] = windowed(crash);
  SiteConfig corrupt;
  corrupt.rate = 0.03;
  plan.sites["segment_store.corrupt"] = windowed(corrupt);
  SiteConfig dropout;
  dropout.rate = 0.08;
  plan.sites["fleet.node_dropout"] = windowed(dropout);
  SiteConfig stall;
  stall.rate = 0.25;
  stall.delay_us = 200;
  plan.sites["fleet.stall"] = windowed(stall);
  plan.sites["serve.stall"] = windowed(stall);
  SiteConfig abort_cfg;
  abort_cfg.rate = 0.25;
  plan.sites["retrain.abort"] = windowed(abort_cfg);
  SiteConfig radio;
  radio.burst.p_enter = 0.04;
  radio.burst.p_exit = 0.25;
  radio.burst.loss_in_good = 0.01;
  radio.burst.loss_in_bad = 0.85;
  plan.sites["radio.loss_burst"] = windowed(radio);
  return plan;
}

// The trim / number-parse / diagnostic helpers this parser originally
// carried now live in util/plan_text (shared with sim::ScenarioPlan); the
// "fault plan line N: ..." message text is unchanged.
namespace {
constexpr std::string_view kPlanContext = "fault plan";
}  // namespace

FaultPlan FaultPlan::parse(std::istream& in) {
  using util::parse_fail;
  using util::parse_u64;
  // Fails the parse at `line_no` when `refusal` is not empty.
  const auto check = [](const std::string& refusal, std::size_t line_no) {
    if (!refusal.empty()) parse_fail(kPlanContext, line_no, refusal);
  };
  const auto probability = [&](const std::string& key, const std::string& v,
                               std::size_t line_no) {
    const double d = util::parse_double(kPlanContext, v, line_no);
    check(check_probability(key, d, v), line_no);
    return d;
  };
  FaultPlan plan;
  SiteConfig* current = nullptr;
  std::size_t epoch_line = 0;  ///< the current site's last epoch key
  // A site's epoch window is checked once its section is read.
  const auto close_section = [&] {
    if (current != nullptr) check(check_window(*current), epoch_line);
  };
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string text = util::trim(line);
    if (text.empty() || text[0] == '#') continue;
    if (text.front() == '[') {
      const std::string name =
          util::parse_section(kPlanContext, text, "site", line_no);
      close_section();
      current = &plan.sites[name];
      continue;
    }
    const util::KeyValue kv = util::split_key_value(kPlanContext, text, line_no);
    const std::string& key = kv.key;
    const std::string& value = kv.value;
    if (current == nullptr) {
      if (key == "seed") {
        plan.seed = parse_u64(kPlanContext, value, line_no);
      } else {
        parse_fail(kPlanContext, line_no, "unknown top-level key '" + key + "'");
      }
      continue;
    }
    if (key == "rate") {
      current->rate = probability(key, value, line_no);
    } else if (key == "delay_us") {
      current->delay_us = parse_u64(kPlanContext, value, line_no);
      check(check_delay(current->delay_us, value), line_no);
    } else if (key == "epoch_begin") {
      current->epoch_begin = parse_u64(kPlanContext, value, line_no);
      epoch_line = line_no;
    } else if (key == "epoch_end") {
      current->epoch_end = parse_u64(kPlanContext, value, line_no);
      epoch_line = line_no;
    } else if (key == "p_enter") {
      current->burst.p_enter = probability(key, value, line_no);
    } else if (key == "p_exit") {
      current->burst.p_exit = probability(key, value, line_no);
    } else if (key == "loss_in_good") {
      current->burst.loss_in_good = probability(key, value, line_no);
    } else if (key == "loss_in_bad") {
      current->burst.loss_in_bad = probability(key, value, line_no);
    } else {
      parse_fail(kPlanContext, line_no, "unknown site key '" + key + "'");
    }
  }
  close_section();
  return plan;
}

void FaultPlan::save(std::ostream& out) const {
  // Shortest round-trip doubles, so parse(save(p)) keeps every rate.
  using util::format_double;
  out << "# coreda faults plan v1\n";
  out << "seed = " << seed << '\n';
  for (const auto& [name, cfg] : sites) {
    out << "\n[site " << name << "]\n";
    if (cfg.rate > 0.0) out << "rate = " << format_double(cfg.rate) << '\n';
    if (cfg.delay_us != 0) out << "delay_us = " << cfg.delay_us << '\n';
    if (cfg.epoch_begin != 0) out << "epoch_begin = " << cfg.epoch_begin << '\n';
    if (cfg.epoch_end != UINT64_MAX) out << "epoch_end = " << cfg.epoch_end << '\n';
    if (cfg.burst.p_enter > 0.0) {
      out << "p_enter = " << format_double(cfg.burst.p_enter) << '\n';
    }
    if (cfg.burst.p_exit > 0.0) {
      out << "p_exit = " << format_double(cfg.burst.p_exit) << '\n';
    }
    if (cfg.burst.loss_in_good > 0.0) {
      out << "loss_in_good = " << format_double(cfg.burst.loss_in_good) << '\n';
    }
    if (cfg.burst.loss_in_bad > 0.0) {
      out << "loss_in_bad = " << format_double(cfg.burst.loss_in_bad) << '\n';
    }
  }
}

}  // namespace coreda::faults
