/**
 * @file
 * Gated benchmark of the perception kernel backends (vision/kernels.h).
 *
 * Runs each hot kernel in both backends on the same rendered inputs and
 * enforces three hard gates (nonzero exit on any failure):
 *
 *  1. Equivalence — stereo inputs are quantized to multiples of 1/256
 *     (8-bit sensor data), where Fast must be bit-identical to the
 *     Reference oracle (checksum compare); the GEMM convolution must
 *     stay within a small relative tolerance of the naive loop nest;
 *     the planned FFT must be bit-identical to the ad-hoc fft2d; the
 *     Fast ICP transform must match Reference to reassociation
 *     epsilon. The *_vector rows run one Fast primitive (stereo SAD,
 *     gemmF32, the FFT plan) at SimdLevel::None and at the host's
 *     detectSimdLevel(); both outputs must be bitwise equal.
 *  2. Determinism — the Fast stereo output must be bit-identical
 *     across ThreadPool sizes 1 / 2 / 8.
 *  3. Speed — Fast must beat Reference by at least the per-kernel
 *     floor (3x stereo, 2x conv forward, 1.2x ICP align, 2x planned
 *     FFT by default; lowered in smoke mode where tiny inputs amortize
 *     less, and overridable for sanitizer runs with stereo_floor= /
 *     conv_floor= / icp_dechurn_floor= / fft_floor=). The vector SAD
 *     must beat its scalar body by simd_floor= (default 1.5), enforced
 *     only when the host actually runs AVX2 — on lesser hosts and
 *     SOV_SIMD=OFF builds both sides run the scalar body and only the
 *     equivalence gates apply. The GEMM and FFT vector rows report
 *     their speedup without a floor.
 *
 * Results (ns per call, speedup, checksums) go to BENCH_kernels.json
 * via the shared bench harness.
 *
 * Usage:
 *   bench_kernels [smoke=1] [reps=N] [stereo_floor=X] [conv_floor=X]
 *                 [icp_dechurn_floor=X] [fft_floor=X] [simd_floor=X]
 *                 [out=BENCH_kernels.json]
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "harness.h"
#include "math/fft_plan.h"
#include "math/gemm.h"
#include "math/simd_kernels.h"
#include "pointcloud/icp.h"
#include "vision/cnn.h"
#include "vision/renderer.h"
#include "vision/stereo.h"

using namespace sov;
using bench::bestNs;
using bench::fnv1a;
using bench::hex;

namespace {

std::uint64_t
fingerprint(const DisparityMap &map)
{
    std::uint64_t h = bench::kFnvOffset;
    h = fnv1a(map.disparity.data().data(),
              map.disparity.data().size() * sizeof(float), h);
    h = fnv1a(&map.density, sizeof(map.density), h);
    return h;
}

std::uint64_t
fingerprint(const Tensor &t)
{
    return fnv1a(t.data().data(), t.data().size() * sizeof(float));
}

/** Snap to multiples of 1/256 — 8-bit sensor quantization, the domain
 *  where the stereo backends agree bit-for-bit. */
void
quantize256(Image &img)
{
    for (auto &v : img.data())
        v = std::round(v * 256.0f) / 256.0f;
}

/** Render a textured obstacle scene stereo pair. */
std::pair<Image, Image>
renderScene(const CameraIntrinsics &intr)
{
    World world;
    Obstacle obs;
    obs.cls = ObjectClass::Pedestrian; // high-frequency striped texture
    obs.footprint = OrientedBox2{Pose2{Vec2(10.0, 0.0), 0.0}, 0.5, 2.0};
    obs.height = 2.0;
    world.addObstacle(obs);
    Obstacle car;
    car.cls = ObjectClass::Car;
    car.footprint = OrientedBox2{Pose2{Vec2(14.0, 3.0), 0.3}, 1.8, 4.2};
    car.height = 1.5;
    world.addObstacle(car);

    const StereoRig rig = StereoRig::forwardFacing(intr, 0.5, 1.0);
    const Renderer renderer;
    const Pose2 body{Vec2(0, 0), 0.0};
    const CameraPose lp = rig.left.poseAt(body, 1.5);
    const CameraPose rp = rig.right.poseAt(body, 1.5);
    auto lf = renderer.render(world, rig.left, lp, Timestamp::origin());
    auto rf = renderer.render(world, rig.right, rp, Timestamp::origin());
    quantize256(lf.intensity);
    quantize256(rf.intensity);
    return {std::move(lf.intensity), std::move(rf.intensity)};
}

struct KernelRow
{
    std::string name;
    double ref_ns = 0.0;
    double fast_ns = 0.0;
    double speedup = 0.0;
    double floor = 0.0;
    std::uint64_t checksum_ref = 0;
    std::uint64_t checksum_fast = 0;
    bool equivalent = false;
    double max_rel_diff = 0.0; //!< 0 for bitwise-gated kernels
    bool pass = false;
};

double
maxRelDiff(const Tensor &a, const Tensor &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double ra = a.data()[i];
        const double rb = b.data()[i];
        const double rel =
            std::fabs(ra - rb) / std::max(1.0, std::fabs(ra));
        worst = std::max(worst, rel);
    }
    return worst;
}

/**
 * One Fast primitive timed at SimdLevel::None (ref side) against the
 * host's level (fast side). @p work runs the primitive at the given
 * level from a fixed starting state; @p sum checksums its output. The
 * sides alternate within each rep, so a host whose clock sags over
 * consecutive runs taxes both alike, and best-of-N still picks each
 * side's coolest rep.
 */
template <typename Work, typename Sum>
KernelRow
vectorRow(const char *name, double floor, int reps, SimdLevel level,
          Work &&work, Sum &&sum)
{
    KernelRow row;
    row.name = name;
    row.floor = floor;
    row.ref_ns = row.fast_ns = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        row.ref_ns = std::min(
            row.ref_ns, bestNs(1, [&] { work(SimdLevel::None); }));
        row.checksum_ref = sum();
        row.fast_ns =
            std::min(row.fast_ns, bestNs(1, [&] { work(level); }));
        row.checksum_fast = sum();
    }
    row.equivalent = row.checksum_ref == row.checksum_fast;
    row.speedup = row.ref_ns / row.fast_ns;
    row.pass = row.equivalent && row.speedup >= row.floor;
    return row;
}

/** @p n uniform floats in [-1, 1). */
std::vector<float>
randomFloats(std::size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const int reps = static_cast<int>(config.getInt("reps", smoke ? 3 : 5));
    // Smoke inputs are small, so fixed per-frame costs amortize less;
    // sanitizer CI lowers the floors to 0 (it gates equivalence and
    // determinism, not machine-dependent speed).
    const double stereo_floor =
        config.getDouble("stereo_floor", smoke ? 1.3 : 3.0);
    const double conv_floor =
        config.getDouble("conv_floor", smoke ? 1.2 : 2.0);
    // Fast vs the in-tree (de-churned) Reference: what remains of the
    // gap is warm-started NN + the closed-form accumulator.
    const double icp_dechurn_floor =
        config.getDouble("icp_dechurn_floor", smoke ? 1.1 : 1.2);
    const double fft_floor =
        config.getDouble("fft_floor", smoke ? 1.2 : 2.0);
    // The vector-vs-scalar SAD floor only binds where the AVX2 body
    // actually runs; everywhere else both sides are the scalar body.
    const SimdLevel simd_level = detectSimdLevel();
    const double simd_floor = config.getDouble(
        "simd_floor",
        simd_level == SimdLevel::Avx2 ? (smoke ? 1.05 : 1.5) : 0.0);

    std::printf("simd level: %s\n", simdLevelName(simd_level));

    std::vector<KernelRow> rows;
    bool thread_fingerprints_ok = true;

    // ------------------------------------------------------------ stereo
    {
        CameraIntrinsics intr;
        if (smoke) {
            intr.fx = intr.fy = 135.0;
            intr.cx = 80.0;
            intr.cy = 60.0;
            intr.width = 160;
            intr.height = 120;
        }
        const auto [left, right] = renderScene(intr);

        StereoConfig cfg;
        cfg.max_disparity = smoke ? 24 : 48;
        const StereoMatcher ref_matcher(cfg);
        cfg.backend = KernelBackend::Fast;
        const StereoMatcher fast_matcher(cfg);

        KernelRow row;
        row.name = "stereo_match";
        row.floor = stereo_floor;

        DisparityMap ref_map, fast_map;
        row.ref_ns = bestNs(smoke ? 2 : reps, [&] {
            ref_map = ref_matcher.match(left, right);
        });
        row.fast_ns = bestNs(reps, [&] {
            fast_map = fast_matcher.match(left, right);
        });
        row.checksum_ref = fingerprint(ref_map);
        row.checksum_fast = fingerprint(fast_map);
        row.equivalent = row.checksum_ref == row.checksum_fast;
        row.speedup = row.ref_ns / row.fast_ns;
        row.pass = row.equivalent && row.speedup >= row.floor;
        rows.push_back(row);

        std::printf("stereo %zux%zu (max_disparity %d): density %.2f\n",
                    left.width(), left.height(), cfg.max_disparity,
                    fast_map.density);

        // Determinism gate: Fast fingerprints across thread counts.
        std::printf("  thread fingerprints:");
        for (const std::size_t threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            StereoMatcher pooled(cfg);
            pooled.setThreadPool(&pool);
            const std::uint64_t fp = fingerprint(pooled.match(left, right));
            std::printf(" %zu:%s", threads, hex(fp).c_str());
            if (fp != row.checksum_fast)
                thread_fingerprints_ok = false;
        }
        std::printf(" serial:%s -> %s\n", hex(row.checksum_fast).c_str(),
                    thread_fingerprints_ok ? "identical" : "MISMATCH");

        // The SAD column-sum update alone, scalar body vs the host's
        // vector body, over the Fast matcher's table shape: D + 1
        // disparity rows of span = w + 2r columns, every image row
        // entering (absDiffAdd) and half of them leaving
        // (absDiffSub).
        const std::size_t span =
            left.width() + static_cast<std::size_t>(2 * cfg.block_radius);
        const auto d1 = static_cast<std::size_t>(
            cfg.max_disparity + cfg.prior_margin + 1);
        const std::size_t h = left.height();
        Rng prng(53);
        const std::vector<float> pad_l = randomFloats(h * span, prng);
        const std::vector<float> pad_r =
            randomFloats(h * (span + d1), prng);
        std::vector<float> colsum(d1 * span);
        rows.push_back(vectorRow(
            "sad_vector", simd_floor, reps, simd_level,
            [&](SimdLevel level) {
                std::fill(colsum.begin(), colsum.end(), 0.0f);
                for (std::size_t y = 0; y < h; ++y) {
                    const float *a = pad_l.data() + y * span;
                    const float *b = pad_r.data() + y * (span + d1);
                    for (std::size_t d = 0; d < d1; ++d) {
                        float *cs = colsum.data() + d * span;
                        if (y < h / 2)
                            simd::absDiffSub(cs, a, b + (d1 - 1 - d),
                                             span, level);
                        simd::absDiffAdd(cs, a, b + (d1 - 1 - d), span,
                                         level);
                    }
                }
            },
            [&] {
                return fnv1a(colsum.data(), colsum.size() * sizeof(float));
            }));
    }

    // ----------------------------------------------------------- conv2d
    {
        const std::size_t side = smoke ? 32 : 64;
        Rng wrng1(77), wrng2(77);
        Conv2d ref_conv(8, 16, 3, wrng1);
        Conv2d fast_conv(8, 16, 3, wrng2);
        fast_conv.setBackend(KernelBackend::Fast);

        Rng irng(78);
        Tensor input(8, side, side);
        for (auto &v : input.data())
            v = static_cast<float>(irng.uniform(-1.0, 1.0));
        Tensor grad_out(16, side, side);
        for (auto &v : grad_out.data())
            v = static_cast<float>(irng.uniform(-1.0, 1.0));

        const int conv_reps = smoke ? 5 : 10;
        Tensor ref_out, fast_out;
        KernelRow fwd;
        fwd.name = "conv2d_forward";
        fwd.floor = conv_floor;
        fwd.ref_ns = bestNs(conv_reps, [&] {
            ref_out = ref_conv.forward(Tensor(input), true);
        });
        fwd.fast_ns = bestNs(conv_reps, [&] {
            fast_out = fast_conv.forward(Tensor(input), true);
        });
        fwd.checksum_ref = fingerprint(ref_out);
        fwd.checksum_fast = fingerprint(fast_out);
        fwd.max_rel_diff = maxRelDiff(ref_out, fast_out);
        fwd.equivalent = fwd.max_rel_diff <= 1e-4;
        fwd.speedup = fwd.ref_ns / fwd.fast_ns;
        fwd.pass = fwd.equivalent && fwd.speedup >= fwd.floor;
        rows.push_back(fwd);

        // Backward: equivalence-gated, speedup reported but not floored
        // (the reference skips zero gradients, so its cost is
        // input-dependent).
        Tensor ref_grad, fast_grad;
        KernelRow bwd;
        bwd.name = "conv2d_backward";
        bwd.floor = 0.0;
        bwd.ref_ns = bestNs(conv_reps, [&] {
            ref_grad = ref_conv.backward(grad_out);
            ref_conv.applyGradients(0.0f, 1); // rezero accumulators
        });
        bwd.fast_ns = bestNs(conv_reps, [&] {
            fast_grad = fast_conv.backward(grad_out);
            fast_conv.applyGradients(0.0f, 1);
        });
        bwd.checksum_ref = fingerprint(ref_grad);
        bwd.checksum_fast = fingerprint(fast_grad);
        bwd.max_rel_diff = maxRelDiff(ref_grad, fast_grad);
        bwd.equivalent = bwd.max_rel_diff <= 1e-3;
        bwd.speedup = bwd.ref_ns / bwd.fast_ns;
        bwd.pass = bwd.equivalent;
        rows.push_back(bwd);

        // The forward GEMM alone (gemmF32 at the layer's shape:
        // out_c x pixels x in_c·k²), scalar axpy micro-rows vs the
        // host's vector body; the micro-row is element-wise, so the
        // outputs must agree bit for bit.
        const std::size_t m = 16, n = side * side, k = 8 * 3 * 3;
        Rng grng(79);
        const std::vector<float> ga = randomFloats(m * k, grng);
        const std::vector<float> gb = randomFloats(k * n, grng);
        std::vector<float> gc(m * n);
        rows.push_back(vectorRow(
            "gemm_vector", 0.0, conv_reps, simd_level,
            [&](SimdLevel level) {
                std::fill(gc.begin(), gc.end(), 0.0f);
                gemmF32(m, n, k, ga.data(), gb.data(), gc.data(), level);
            },
            [&] { return fnv1a(gc.data(), gc.size() * sizeof(float)); }));
    }

    // -------------------------------------------------------- fft2d plan
    {
        const std::size_t side = smoke ? 32 : 64;
        Rng rng(52);
        std::vector<Complex> signal(side * side);
        for (auto &c : signal)
            c = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));

        const int fft_reps = smoke ? 10 : 20;
        KernelRow row;
        row.name = "fft2d_plan";
        row.floor = fft_floor;

        std::vector<Complex> adhoc, planned;
        row.ref_ns = bestNs(fft_reps, [&] {
            adhoc = signal;
            fft2d(adhoc, side, side, false);
            fft2d(adhoc, side, side, true);
        });
        Fft2dPlan plan(side, side);
        row.fast_ns = bestNs(fft_reps, [&] {
            planned = signal;
            plan.forward(planned.data(), simd_level);
            plan.inverse(planned.data(), simd_level);
        });
        row.checksum_ref =
            fnv1a(adhoc.data(), adhoc.size() * sizeof(Complex));
        row.checksum_fast =
            fnv1a(planned.data(), planned.size() * sizeof(Complex));
        // The plan replays the ad-hoc twiddle rounding and the vector
        // butterflies round like the scalar ones: bitwise gate.
        row.equivalent = row.checksum_ref == row.checksum_fast;
        row.speedup = row.ref_ns / row.fast_ns;
        row.pass = row.equivalent && row.speedup >= row.floor;
        rows.push_back(row);

        // The same planned round trip, scalar butterflies vs the
        // host's vector body.
        rows.push_back(vectorRow(
            "fft_plan_vector", 0.0, fft_reps, simd_level,
            [&](SimdLevel level) {
                planned = signal;
                plan.forward(planned.data(), level);
                plan.inverse(planned.data(), level);
            },
            [&] {
                return fnv1a(planned.data(),
                             planned.size() * sizeof(Complex));
            }));
    }

    // --------------------------------------------------------- icp align
    {
        Rng rng(41);
        PointCloud target(0);
        const int per_kind = smoke ? 120 : 400;
        for (int i = 0; i < per_kind; ++i) {
            target.add(Vec3(rng.uniform(0, 20), 0.0,
                            rng.uniform(0, 3)));
            target.add(Vec3(0.0, rng.uniform(0, 15),
                            rng.uniform(0, 3)));
            target.add(Vec3(rng.uniform(0, 20), rng.uniform(0, 15),
                            rng.uniform(0, 0.2)));
        }
        const Quat rot = Quat::fromYaw(0.06);
        const Vec3 t(0.3, -0.2, 0.04);
        const PointCloud source = target.transformed(
            rot.conjugate(), rot.conjugate().rotate(-t));
        const KdTree tree(target);

        const auto transformChecksum = [](const IcpResult &r) {
            const double v[7] = {
                r.transform.rotation.w(), r.transform.rotation.x(),
                r.transform.rotation.y(), r.transform.rotation.z(),
                r.transform.translation.x(),
                r.transform.translation.y(),
                r.transform.translation.z()};
            return fnv1a(v, sizeof(v));
        };
        const auto transformDelta = [](const IcpResult &a,
                                       const IcpResult &b) {
            return std::max(
                a.transform.rotation.angularDistance(
                    b.transform.rotation),
                (a.transform.translation - b.transform.translation)
                    .norm());
        };

        // Each align is a few ms, so generous best-of reps are cheap,
        // and the two tiers alternate within each rep so a host whose
        // clock sags over consecutive runs taxes both alike.
        const int icp_reps = smoke ? 3 : 15;
        IcpConfig ref_cfg;
        IcpConfig fast_cfg;
        fast_cfg.backend = KernelBackend::Fast;

        IcpResult ref_r, fast_r;
        KernelRow row;
        row.name = "icp_align_dechurn";
        row.floor = icp_dechurn_floor;
        row.ref_ns = row.fast_ns = 1e30;
        for (int rep = 0; rep < icp_reps; ++rep) {
            row.ref_ns = std::min(row.ref_ns, bestNs(1, [&] {
                ref_r = icpAlign(source, target, tree, {}, ref_cfg);
            }));
            row.fast_ns = std::min(row.fast_ns, bestNs(1, [&] {
                fast_r = icpAlign(source, target, tree, {}, fast_cfg);
            }));
        }
        row.checksum_ref = transformChecksum(ref_r);
        row.checksum_fast = transformChecksum(fast_r);
        // Identical correspondences (nearestFast is exact); the normal
        // equations differ only in summation order, so the transforms
        // agree to reassociation epsilon.
        row.max_rel_diff = transformDelta(ref_r, fast_r);
        row.equivalent = row.max_rel_diff <= 1e-9 &&
            ref_r.iterations == fast_r.iterations &&
            ref_r.converged == fast_r.converged;
        row.speedup = row.ref_ns / row.fast_ns;
        row.pass = row.equivalent && row.speedup >= row.floor;
        rows.push_back(row);
    }

    // ----------------------------------------------------------- report
    std::printf("\n%-16s %14s %14s %9s %7s %6s\n", "kernel",
                "reference [ns]", "fast [ns]", "speedup", "floor", "gate");
    for (const KernelRow &r : rows) {
        std::printf("%-16s %14.0f %14.0f %8.2fx %6.2fx %6s\n",
                    r.name.c_str(), r.ref_ns, r.fast_ns, r.speedup,
                    r.floor, r.pass ? "pass" : "FAIL");
        if (!r.pass) {
            if (!r.equivalent) {
                std::printf("  -> DIVERGENCE: checksum %s vs %s "
                            "(max rel diff %.3g)\n",
                            hex(r.checksum_ref).c_str(),
                            hex(r.checksum_fast).c_str(), r.max_rel_diff);
            }
            if (r.speedup < r.floor) {
                std::printf("  -> speedup %.2fx below floor %.2fx\n",
                            r.speedup, r.floor);
            }
        }
    }
    if (!thread_fingerprints_ok)
        std::printf("FAIL: fast stereo output differs across thread "
                    "counts\n");

    bench::BenchReport report("kernels");
    report.setSmoke(smoke);
    report.meta("thread_fingerprints_identical", thread_fingerprints_ok);
    for (const KernelRow &r : rows) {
        report.addRow("kernels")
            .set("name", r.name)
            .set("ref_ns_per_call", r.ref_ns)
            .set("fast_ns_per_call", r.fast_ns)
            .set("speedup", r.speedup)
            .set("floor", r.floor)
            .set("checksum_ref", hex(r.checksum_ref))
            .set("checksum_fast", hex(r.checksum_fast))
            .set("max_rel_diff", r.max_rel_diff)
            .set("equivalent", r.equivalent)
            .set("pass", r.pass);
        report.gate(r.name, r.pass,
                    r.pass ? "" : "equivalence or speed floor failed");
    }
    report.gate("thread_fingerprints", thread_fingerprints_ok,
                thread_fingerprints_ok
                    ? ""
                    : "fast stereo differs across thread counts");
    return report.write(config);
}
