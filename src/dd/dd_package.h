#ifndef QKC_DD_DD_PACKAGE_H
#define QKC_DD_DD_PACKAGE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dd/complex_table.h"
#include "dd/dd_node.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace qkc {

/** Operation counters exposed for tests and the compile-metrics CLI. */
struct DdStats {
    std::size_t liveVNodes = 0;      ///< vector nodes currently in the unique table
    std::size_t liveMNodes = 0;      ///< matrix nodes currently in the unique table
    std::size_t allocatedVNodes = 0; ///< lifetime vector-node constructions (free-list reuses included)
    std::size_t allocatedMNodes = 0; ///< lifetime matrix-node constructions
    std::size_t peakLiveNodes = 0;   ///< max of liveVNodes + liveMNodes ever reached
    std::size_t gcRuns = 0;          ///< completed garbageCollect() sweeps
    std::size_t nodesCollected = 0;  ///< unique-table evictions across all sweeps
    std::size_t vHits = 0;           ///< vector unique-table hits (dedups)
    std::size_t mHits = 0;           ///< matrix unique-table hits (dedups)
    std::size_t applyHits = 0;       ///< matrix-vector compute-table hits
    std::size_t applyMisses = 0;
    std::size_t addHits = 0;         ///< vector-add compute-table hits
    std::size_t addMisses = 0;
};

/**
 * The QMDD package: owns every node, keeps the unique tables that give
 * canonical (maximally shared) diagrams, and memoizes the two recursive
 * operations — vector addition and matrix-vector application — in compute
 * tables.
 *
 * Lifetime model: nodes live in an arena owned by the package and are
 * recycled by a mark-and-sweep garbage collector. Callers holding an edge
 * across package operations keep it alive by protect()/unprotect() (root
 * registration — what sessions use for their state and cached gate DDs).
 * garbageCollect() marks everything reachable from a protected root, evicts
 * the rest from the unique tables onto per-arena free lists for reuse,
 * invalidates the apply/add compute tables (they key on raw node pointers),
 * and sweeps ComplexTable weights no surviving unique-table key references.
 *
 * Collection only runs inside garbageCollect()/maybeGarbageCollect() —
 * never spontaneously mid-operation — so unprotected intermediate edges
 * are safe within a call chain; callers trigger maybeGarbageCollect() at
 * safe points (between trajectories, between parameter binds). The
 * threshold trigger fires once liveVNodes + liveMNodes reaches
 * gcThreshold(), and after a sweep the threshold grows to twice the
 * surviving live count when most of the table was genuinely live, so a
 * large working set cannot thrash the collector.
 */
class DdPackage {
  public:
    /** Default maybeGarbageCollect() trigger: live nodes before a sweep. */
    static constexpr std::size_t kDefaultGcThreshold = 1u << 16;

    explicit DdPackage(std::size_t numQubits);

    std::size_t numQubits() const { return numQubits_; }

    // -- Memory lifecycle ----------------------------------------------------

    /** Sets the threshold trigger's node count (>= 1). */
    void setGcThreshold(std::size_t threshold);

    std::size_t gcThreshold() const { return gcThreshold_; }

    /**
     * Root registration for session-held edges: a protected edge (and its
     * descendants) survives every sweep until unprotected. Each protect
     * adds one root entry, so protecting an edge twice requires two
     * unprotects; unprotect of an unregistered edge throws
     * std::logic_error. Neither call walks the diagram.
     */
    void protect(const VEdge& e);
    void unprotect(const VEdge& e);
    void protect(const MEdge& e);
    void unprotect(const MEdge& e);

    /** Registered (still-protected) roots, both kinds. */
    std::size_t protectedRootCount() const
    {
        return vRoots_.size() + mRoots_.size();
    }

    /**
     * Mark-and-sweep collection (runs regardless of the threshold): marks
     * from protected roots only, evicts dead unique-table entries onto the
     * free lists, drops both compute tables and sweeps unreferenced
     * interned weights. Returns nodes collected. Only call at safe points —
     * any unprotected edge held by a caller dangles afterwards.
     */
    std::size_t garbageCollect();

    /** Runs garbageCollect() iff live nodes have reached gcThreshold(). */
    bool maybeGarbageCollect();

    // -- Construction --------------------------------------------------------

    /** The all-zeros computational basis state |00...0>. */
    VEdge makeZeroState();

    /** An arbitrary computational basis state (qubit 0 = MSB of `basis`). */
    VEdge makeBasisState(std::uint64_t basis);

    /**
     * Lowers a 2^k x 2^k gate (or Kraus) matrix acting on `qubits` —
     * qubits[0] the most significant bit of the matrix's local basis index,
     * exactly the Gate::unitary() convention — into a full n-qubit matrix
     * DD, with identity structure on uninvolved levels. Zero matrix entries
     * never allocate nodes, so sparse gates stay sparse.
     */
    MEdge makeGateDd(const Matrix& u, const std::vector<std::size_t>& qubits);

    /**
     * The matrix DD of an n-qubit Pauli string ("IXYZ..."), one character
     * per qubit (index 0 = qubit 0). Product operators chain one node per
     * level, so the diagram is linear in qubits regardless of how many
     * factors are non-identity — one apply() with this beats one apply()
     * per non-identity qubit on both passes and compute-table traffic.
     */
    MEdge makePauliDd(const std::string& paulis);

    // -- Normalizing constructors (exposed for the invariant tests) ----------

    /**
     * Canonical vector node: children weights are rescaled so that
     * |w0|^2 + |w1|^2 = 1 with the first non-zero weight real >= 0, the
     * factored-out weight moves to the returned edge, and the node is
     * deduplicated through the unique table. All-zero children collapse to
     * the zero edge.
     */
    VEdge makeVNode(std::size_t level, const VEdge& e0, const VEdge& e1);

    /**
     * Canonical matrix node: weights are divided by the largest-magnitude
     * child weight (first among equals), which becomes exactly 1.
     */
    MEdge makeMNode(std::size_t level, const std::array<MEdge, 4>& children);

    // -- Operations -----------------------------------------------------------

    /** Element-wise sum a + b (memoized). */
    VEdge add(const VEdge& a, const VEdge& b);

    /** Matrix-vector product m * v (memoized) — one gate application. */
    VEdge apply(const MEdge& m, const VEdge& v);

    // -- Queries --------------------------------------------------------------

    /** Amplitude of one basis state: the product of weights along its path. */
    Complex amplitude(const VEdge& state, std::uint64_t basis) const;

    /**
     * Squared 2-norm of the represented vector. Thanks to the per-node
     * normalization invariant this is just |root weight|^2.
     */
    double normSquared(const VEdge& state) const;

    /**
     * <a|b> = sum_x conj(a_x) b_x by a simultaneous memoized walk of both
     * diagrams — cost is the product of live node-pair counts, not 2^n.
     * Combined with apply(), this serves native Pauli expectation values:
     * <psi|P|psi> = innerProduct(psi, apply(P_dd, psi)).
     */
    Complex innerProduct(const VEdge& a, const VEdge& b) const;

    /** Rescales the root weight to unit magnitude (phase preserved). */
    VEdge normalized(const VEdge& state) const;

    /** All 2^n outcome probabilities (small n; used by tests and the CLI). */
    std::vector<double> probabilities(const VEdge& state) const;

    /**
     * Draws one measurement outcome by walking the diagram root-to-terminal:
     * at each node the branch probabilities are the squared child weights
     * (the normalization invariant makes them sum to 1), so a sample costs
     * O(n) independent of the state's density.
     */
    std::uint64_t sampleOutcome(const VEdge& state, Rng& rng) const;

    /** Number of distinct nodes reachable from `state` (terminal excluded). */
    std::size_t nodeCount(const VEdge& state) const;

    /** Number of distinct matrix nodes reachable from `op`. */
    std::size_t nodeCount(const MEdge& op) const;

    const DdStats& stats() const { return stats_; }

    /** Distinct weight components interned in the complex table. */
    std::size_t internedWeightCount() const { return weights_.size(); }

    /** Drops compute-table memo entries (unique tables and nodes survive). */
    void clearComputeTables();

  private:
    struct VKey {
        std::size_t level;
        std::array<VNode*, 2> nodes;
        std::array<InternedComplex, 2> weights;
        bool operator==(const VKey& o) const
        {
            return level == o.level && nodes == o.nodes && weights == o.weights;
        }
    };
    struct MKey {
        std::size_t level;
        std::array<MNode*, 4> nodes;
        std::array<InternedComplex, 4> weights;
        bool operator==(const MKey& o) const
        {
            return level == o.level && nodes == o.nodes && weights == o.weights;
        }
    };
    struct VKeyHash {
        std::size_t operator()(const VKey& k) const;
    };
    struct MKeyHash {
        std::size_t operator()(const MKey& k) const;
    };
    struct ApplyKey {
        const MNode* m;
        const VNode* v;
        bool operator==(const ApplyKey& o) const
        {
            return m == o.m && v == o.v;
        }
    };
    struct ApplyKeyHash {
        std::size_t operator()(const ApplyKey& k) const;
    };
    struct AddKey {
        const VNode* a;
        const VNode* b;
        QuantizedComplex ratio; ///< b's weight relative to a's (factored out)
        bool operator==(const AddKey& o) const
        {
            return a == o.a && b == o.b && ratio == o.ratio;
        }
    };
    struct AddKeyHash {
        std::size_t operator()(const AddKey& k) const;
    };

    MEdge buildGateLevel(const Matrix& u,
                         const std::vector<std::size_t>& qubits,
                         std::size_t level, std::size_t row, std::size_t col);
    VEdge addNodes(VNode* a, VNode* b, const Complex& ratio);
    void countNodes(const VNode* node,
                    std::unordered_set<const VNode*>& seen) const;

    void markV(VNode* node);
    void markM(MNode* node);
    void notePeak();

    std::size_t numQubits_;
    std::size_t gcThreshold_ = kDefaultGcThreshold;
    std::uint32_t gcGeneration_ = 0; ///< stamp compared against node marks
    ComplexTable weights_;
    std::deque<VNode> vArena_;
    std::deque<MNode> mArena_;
    VNode* vFree_ = nullptr; ///< collected nodes, chained via nextFree
    MNode* mFree_ = nullptr;
    std::vector<VEdge> vRoots_; ///< protected roots (session-held edges)
    std::vector<MEdge> mRoots_;
    std::unordered_map<VKey, VNode*, VKeyHash> vUnique_;
    std::unordered_map<MKey, MNode*, MKeyHash> mUnique_;
    std::unordered_map<ApplyKey, VEdge, ApplyKeyHash> applyCache_;
    std::unordered_map<AddKey, VEdge, AddKeyHash> addCache_;
    DdStats stats_;
};

} // namespace qkc

#endif // QKC_DD_DD_PACKAGE_H
