#include "predictor.hh"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/bitops.hh"
#include "common/stats.hh"

namespace pinte
{

const char *
toString(BranchPredictorKind k)
{
    switch (k) {
      case BranchPredictorKind::Bimodal: return "bimodal";
      case BranchPredictorKind::GShare: return "gshare";
      case BranchPredictorKind::Perceptron: return "perceptron";
      case BranchPredictorKind::HashedPerceptron: return "hashed-perceptron";
      case BranchPredictorKind::AlwaysTaken: return "always-taken";
    }
    return "unknown";
}

void
BranchPredictor::recordOutcome(bool predicted, bool actual)
{
    ++lookups_;
    if (predicted == actual)
        ++correct_;
}

double
BranchPredictor::accuracy() const
{
    if (lookups_ == 0)
        return 1.0;
    return static_cast<double>(correct_) / static_cast<double>(lookups_);
}

namespace
{

void
putI16Vec(SnapshotWriter &w, const std::vector<std::int16_t> &v)
{
    w.put64(v.size());
    for (const std::int16_t x : v)
        w.put32(static_cast<std::uint32_t>(static_cast<std::int32_t>(x)));
}

/** Restore `v`, which keeps the length its table was built with. */
void
getI16Vec(SnapshotReader &r, std::vector<std::int16_t> &v)
{
    r.getCountOf(v.size(), "branch");
    for (std::int16_t &x : v)
        x = static_cast<std::int16_t>(
            static_cast<std::int32_t>(r.get32()));
}

/** Classic 2-bit saturating counter table indexed by IP bits. */
class Bimodal : public BranchPredictor
{
  public:
    explicit Bimodal(unsigned size_log2)
        : mask_((1u << size_log2) - 1), table_(1u << size_log2, 2)
    {}

    bool
    predict(Addr ip) override
    {
        return table_[index(ip)] >= 2;
    }

    void
    update(Addr ip, bool taken) override
    {
        std::uint8_t &c = table_[index(ip)];
        if (taken)
            c = std::min<std::uint8_t>(3, c + 1);
        else
            c = c > 0 ? c - 1 : 0;
    }

    const char *name() const override { return "bimodal"; }

  protected:
    void
    saveTableState(SnapshotWriter &w) const override
    {
        w.putVec8(table_);
    }

    void
    loadTableState(SnapshotReader &r) override
    {
        r.getVec8Into(table_, "branch");
    }

  private:
    std::size_t index(Addr ip) const { return (ip >> 2) & mask_; }

    std::size_t mask_;
    std::vector<std::uint8_t> table_;
};

/** GShare: IP xor global-history indexed 2-bit counters. */
class GShare : public BranchPredictor
{
  public:
    explicit GShare(unsigned size_log2)
        : bits_(size_log2), mask_((1u << size_log2) - 1),
          table_(1u << size_log2, 2)
    {}

    bool
    predict(Addr ip) override
    {
        return table_[index(ip)] >= 2;
    }

    void
    update(Addr ip, bool taken) override
    {
        std::uint8_t &c = table_[index(ip)];
        if (taken)
            c = std::min<std::uint8_t>(3, c + 1);
        else
            c = c > 0 ? c - 1 : 0;
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & mask_;
    }

    const char *name() const override { return "gshare"; }

  protected:
    void
    saveTableState(SnapshotWriter &w) const override
    {
        w.put64(history_);
        w.putVec8(table_);
    }

    void
    loadTableState(SnapshotReader &r) override
    {
        history_ = r.get64();
        r.getVec8Into(table_, "branch");
    }

  private:
    std::size_t
    index(Addr ip) const
    {
        return (((ip >> 2) ^ history_) & mask_);
    }

    unsigned bits_;
    std::size_t mask_;
    std::uint64_t history_ = 0;
    std::vector<std::uint8_t> table_;
};

/** Jimenez & Lin single-table perceptron predictor. */
class Perceptron : public BranchPredictor
{
  public:
    explicit Perceptron(unsigned size_log2)
        : mask_((1u << (size_log2 > 4 ? size_log2 - 4 : 1)) - 1),
          weights_(mask_ + 1, std::vector<std::int16_t>(histLen + 1, 0))
    {}

    bool
    predict(Addr ip) override
    {
        lastOutput_ = compute(ip);
        return lastOutput_ >= 0;
    }

    void
    update(Addr ip, bool taken) override
    {
        const int y = compute(ip);
        const bool pred = y >= 0;
        if (pred != taken || std::abs(y) <= theta) {
            auto &w = weights_[index(ip)];
            const int t = taken ? 1 : -1;
            w[0] = clamp(w[0] + t);
            for (unsigned i = 0; i < histLen; ++i) {
                const int x = ((history_ >> i) & 1) ? 1 : -1;
                w[i + 1] = clamp(w[i + 1] + t * x);
            }
        }
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    const char *name() const override { return "perceptron"; }

  protected:
    void
    saveTableState(SnapshotWriter &w) const override
    {
        w.put64(history_);
        w.put32(static_cast<std::uint32_t>(lastOutput_));
        w.put64(weights_.size());
        for (const auto &row : weights_)
            putI16Vec(w, row);
    }

    void
    loadTableState(SnapshotReader &r) override
    {
        history_ = r.get64();
        lastOutput_ = static_cast<int>(
            static_cast<std::int32_t>(r.get32()));
        r.getCountOf(weights_.size(), "branch");
        for (auto &row : weights_)
            getI16Vec(r, row);
    }

  private:
    static constexpr unsigned histLen = 24;
    // Optimal threshold from Jimenez & Lin: 1.93*h + 14.
    static constexpr int theta = static_cast<int>(1.93 * histLen + 14);

    static std::int16_t
    clamp(int v)
    {
        return static_cast<std::int16_t>(std::clamp(v, -128, 127));
    }

    std::size_t index(Addr ip) const { return (ip >> 2) & mask_; }

    int
    compute(Addr ip) const
    {
        const auto &w = weights_[index(ip)];
        int y = w[0];
        for (unsigned i = 0; i < histLen; ++i)
            y += ((history_ >> i) & 1) ? w[i + 1] : -w[i + 1];
        return y;
    }

    std::size_t mask_;
    std::uint64_t history_ = 0;
    int lastOutput_ = 0;
    std::vector<std::vector<std::int16_t>> weights_;
};

/**
 * Hashed perceptron: several weight tables, each indexed by a hash of
 * the IP with a different global-history length (geometric series), so
 * both short and long correlations are captured.
 */
class HashedPerceptron : public BranchPredictor
{
  public:
    explicit HashedPerceptron(unsigned size_log2)
        : mask_((1u << size_log2) - 1)
    {
        for (auto &t : tables_)
            t.assign(mask_ + 1, 0);
    }

    bool
    predict(Addr ip) override
    {
        return compute(ip) >= 0;
    }

    void
    update(Addr ip, bool taken) override
    {
        const int y = compute(ip);
        const bool pred = y >= 0;
        if (pred != taken || std::abs(y) <= theta) {
            const int t = taken ? 1 : -1;
            for (unsigned i = 0; i < numTables; ++i) {
                std::int16_t &w = tables_[i][index(ip, i)];
                w = static_cast<std::int16_t>(
                    std::clamp(w + t, -64, 63));
            }
        }
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    const char *name() const override { return "hashed-perceptron"; }

  protected:
    void
    saveTableState(SnapshotWriter &w) const override
    {
        w.put64(history_);
        for (const auto &t : tables_)
            putI16Vec(w, t);
    }

    void
    loadTableState(SnapshotReader &r) override
    {
        history_ = r.get64();
        for (auto &t : tables_)
            getI16Vec(r, t);
    }

  private:
    static constexpr unsigned numTables = 6;
    static constexpr int theta = 24;
    // Geometric history lengths 0, 3, 6, 12, 24, 48.
    static constexpr unsigned histLens[numTables] = {0, 3, 6, 12, 24, 48};

    std::size_t
    index(Addr ip, unsigned table) const
    {
        const unsigned len = histLens[table];
        std::uint64_t h = len >= 64 ? history_
                                    : (history_ & ((1ull << len) - 1));
        // Fold the history segment and mix with the IP and table id.
        std::uint64_t v = (ip >> 2) ^ (h * 0x9e3779b97f4a7c15ull) ^
                          (static_cast<std::uint64_t>(table) << 40);
        v ^= v >> 29;
        return v & mask_;
    }

    int
    compute(Addr ip) const
    {
        int y = 0;
        for (unsigned i = 0; i < numTables; ++i)
            y += tables_[i][index(ip, i)];
        return y;
    }

    std::size_t mask_;
    std::uint64_t history_ = 0;
    std::vector<std::int16_t> tables_[numTables];
};

/** Predicts taken unconditionally; the floor any predictor must beat. */
class AlwaysTaken : public BranchPredictor
{
  public:
    bool predict(Addr) override { return true; }
    void update(Addr, bool) override {}
    const char *name() const override { return "always-taken"; }
};

} // namespace

std::unique_ptr<BranchPredictor>
makeBranchPredictor(BranchPredictorKind kind, unsigned size_log2)
{
    switch (kind) {
      case BranchPredictorKind::Bimodal:
        return std::make_unique<Bimodal>(size_log2);
      case BranchPredictorKind::GShare:
        return std::make_unique<GShare>(size_log2);
      case BranchPredictorKind::Perceptron:
        return std::make_unique<Perceptron>(size_log2);
      case BranchPredictorKind::HashedPerceptron:
        return std::make_unique<HashedPerceptron>(size_log2);
      case BranchPredictorKind::AlwaysTaken:
        return std::make_unique<AlwaysTaken>();
    }
    return std::make_unique<Bimodal>(size_log2);
}

void
BranchPredictor::registerStats(StatRegistry &reg,
                               const std::string &prefix) const
{
    reg.addCounter(prefix + ".lookups", "branches recorded", &lookups_);
    reg.addCounter(prefix + ".correct", "correct predictions",
                   &correct_);
    reg.addDerived(prefix + ".accuracy", "prediction accuracy [0,1]",
                   [this] { return accuracy(); });
}

} // namespace pinte
