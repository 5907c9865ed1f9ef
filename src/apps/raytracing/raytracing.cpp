#include "apps/raytracing/raytracing.hpp"

#include <cmath>

#include "apps/common/verify.hpp"
#include "rng/philox.hpp"
#include "rng/xorwow.hpp"
#include "sycl/syclite.hpp"
#include "sycl/thread_pool.hpp"

namespace altis::apps::raytracing {

params params::preset(int size) {
    switch (size) {
        case 1: return {256, 256, 4, 8, 0x7ace5ULL};
        case 2: return {512, 512, 8, 8, 0x7ace5ULL};
        case 3: return {1024, 1024, 16, 8, 0x7ace5ULL};
        default: throw std::invalid_argument("raytracing: size must be 1..3");
    }
}

material material::make_metal(vec3 albedo, float fuzz) {
    material m;
    m.data = {fuzz, 0.0f, albedo.x, albedo.y, albedo.z,
              static_cast<float>(metal), 0.0f, 0.0f};
    return m;
}
material material::make_dielectric(float ref_idx) {
    material m;
    m.data = {0.0f, ref_idx, 1.0f, 1.0f, 1.0f,
              static_cast<float>(dielectric), 0.0f, 0.0f};
    return m;
}
material material::make_lambertian(vec3 albedo) {
    material m;
    m.data = {0.0f, 0.0f, albedo.x, albedo.y, albedo.z,
              static_cast<float>(lambertian), 0.0f, 0.0f};
    return m;
}

namespace {

vec3 operator+(vec3 a, vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
vec3 operator-(vec3 a, vec3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
vec3 operator*(vec3 a, float s) { return {a.x * s, a.y * s, a.z * s}; }
vec3 operator*(vec3 a, vec3 b) { return {a.x * b.x, a.y * b.y, a.z * b.z}; }
float dot(vec3 a, vec3 b) { return a.x * b.x + a.y * b.y + a.z * b.z; }
vec3 normalize(vec3 v) {
    const float inv = 1.0f / std::sqrt(dot(v, v));
    return v * inv;
}
vec3 reflect(vec3 v, vec3 n) { return v - n * (2.0f * dot(v, n)); }

struct ray {
    vec3 origin, dir;
};

/// Unified per-sample random stream over either generator.
class sampler {
public:
    sampler(rng_kind kind, std::uint64_t seed, std::uint32_t pixel,
            std::uint32_t sample)
        : kind_(kind),
          xw_(rng_kind_seed(seed, pixel, sample)),
          ph_(seed, (static_cast<std::uint64_t>(pixel) << 16) | sample) {}

    float next() {
        return kind_ == rng_kind::xorwow ? xw_.next_float() : ph_.next_float();
    }

private:
    static std::uint64_t rng_kind_seed(std::uint64_t seed, std::uint32_t pixel,
                                       std::uint32_t sample) {
        std::uint64_t s = seed ^ (static_cast<std::uint64_t>(pixel) << 20) ^
                          sample;
        return rng::splitmix64(s);
    }
    rng_kind kind_;
    rng::xorwow xw_;
    rng::philox4x32 ph_;
};

vec3 random_in_unit_sphere(sampler& rng) {
    for (int tries = 0; tries < 16; ++tries) {
        const vec3 v{2.0f * rng.next() - 1.0f, 2.0f * rng.next() - 1.0f,
                     2.0f * rng.next() - 1.0f};
        if (dot(v, v) < 1.0f) return v;
    }
    return {0.0f, 0.0f, 0.0f};
}

bool hit_sphere(const sphere& s, const ray& r, float tmin, float tmax,
                float& t_out, vec3& n_out) {
    const vec3 oc = r.origin - s.center;
    const float a = dot(r.dir, r.dir);
    const float b = dot(oc, r.dir);
    const float c = dot(oc, oc) - s.radius * s.radius;
    const float disc = b * b - a * c;
    if (disc <= 0.0f) return false;
    const float sq = std::sqrt(disc);
    for (const float t : {(-b - sq) / a, (-b + sq) / a}) {
        if (t > tmin && t < tmax) {
            t_out = t;
            n_out = normalize((r.origin + r.dir * t) - s.center);
            return true;
        }
    }
    return false;
}

float schlick(float cosine, float ref_idx) {
    float r0 = (1.0f - ref_idx) / (1.0f + ref_idx);
    r0 = r0 * r0;
    // (1-cos)^5 as a multiply chain: pow() with a small constant integer
    // exponent expands to an exp/log sequence (Sec. 3.3's 2-6x trap, lint
    // rule ALS-L1).
    const float m = 1.0f - cosine;
    const float m2 = m * m;
    return r0 + (1.0f - r0) * (m2 * m2 * m);
}

bool refract(vec3 v, vec3 n, float ni_over_nt, vec3& refracted) {
    const vec3 uv = normalize(v);
    const float dt = dot(uv, n);
    const float disc = 1.0f - ni_over_nt * ni_over_nt * (1.0f - dt * dt);
    if (disc <= 0.0f) return false;
    refracted = (uv - n * dt) * ni_over_nt - n * std::sqrt(disc);
    return true;
}

/// Scatter by material kind -- the branch that replaced the CUDA virtual
/// call (Sec. 3.2.2). Returns false when the ray is absorbed.
bool scatter(const material& m, const ray& in, vec3 p, vec3 n, sampler& rng,
             vec3& attenuation, ray& out) {
    const vec3 albedo{m.data[2], m.data[3], m.data[4]};
    switch (m.kind()) {
        case material::lambertian: {
            attenuation = albedo;
            out = {p, normalize(n + random_in_unit_sphere(rng))};
            return true;
        }
        case material::metal: {
            attenuation = albedo;
            const vec3 dir =
                reflect(normalize(in.dir), n) + random_in_unit_sphere(rng) * m.data[0];
            out = {p, dir};
            return dot(dir, n) > 0.0f;
        }
        case material::dielectric: {
            attenuation = {1.0f, 1.0f, 1.0f};
            const float ref_idx = m.data[1];
            vec3 outward_n = n;
            float ni_over_nt = 1.0f / ref_idx;
            float cosine = -dot(normalize(in.dir), n);
            if (dot(in.dir, n) > 0.0f) {
                outward_n = n * -1.0f;
                ni_over_nt = ref_idx;
                cosine = ref_idx * dot(normalize(in.dir), n);
            }
            vec3 refracted;
            if (refract(in.dir, outward_n, ni_over_nt, refracted) &&
                rng.next() >= schlick(cosine, ref_idx)) {
                out = {p, refracted};
            } else {
                out = {p, reflect(normalize(in.dir), n)};
            }
            return true;
        }
        default: return false;
    }
}

struct trace_counters {
    long bounces = 0;
    long rays = 0;
    long tests = 0;
};

vec3 trace(const sphere* scene, std::size_t nspheres, ray r, int max_depth,
           sampler& rng, trace_counters* counters) {
    vec3 color{1.0f, 1.0f, 1.0f};
    for (int depth = 0; depth < max_depth; ++depth) {
        if (counters != nullptr) {
            ++counters->rays;
            counters->tests += static_cast<long>(nspheres);
        }
        float best_t = 1e9f;
        vec3 best_n{};
        std::size_t best_i = nspheres;
        for (std::size_t i = 0; i < nspheres; ++i) {
            float t;
            vec3 n;
            if (hit_sphere(scene[i], r, 1e-3f, best_t, t, n)) {
                best_t = t;
                best_n = n;
                best_i = i;
            }
        }
        if (best_i == nspheres) {
            // Sky gradient background.
            const float s = 0.5f * (normalize(r.dir).y + 1.0f);
            const vec3 sky =
                vec3{1.0f, 1.0f, 1.0f} * (1.0f - s) + vec3{0.5f, 0.7f, 1.0f} * s;
            return color * sky;
        }
        if (counters != nullptr) ++counters->bounces;
        const vec3 p = r.origin + r.dir * best_t;
        vec3 attenuation;
        ray scattered;
        if (!scatter(scene[best_i].mat, r, p, best_n, rng, attenuation,
                     scattered))
            return {0.0f, 0.0f, 0.0f};
        color = color * attenuation;
        r = scattered;
    }
    return {0.0f, 0.0f, 0.0f};
}

ray camera_ray(const params& p, std::size_t px, std::size_t py, float jx,
               float jy) {
    const float u =
        (static_cast<float>(px) + jx) / static_cast<float>(p.width) * 2.0f - 1.0f;
    const float v =
        (static_cast<float>(py) + jy) / static_cast<float>(p.height) * 2.0f - 1.0f;
    const vec3 origin{0.0f, 1.2f, 3.0f};
    const vec3 dir = normalize(vec3{u * 1.6f, -v * 0.9f - 0.25f, -1.0f});
    return {origin, dir};
}

vec3 render_pixel(const params& p, const sphere* scene, std::size_t nspheres,
                  rng_kind kind, std::size_t px, std::size_t py,
                  trace_counters* counters) {
    vec3 acc{};
    for (int s = 0; s < p.samples; ++s) {
        sampler rng(kind, p.seed,
                    static_cast<std::uint32_t>(py * p.width + px),
                    static_cast<std::uint32_t>(s));
        const ray r = camera_ray(p, px, py, rng.next(), rng.next());
        acc = acc + trace(scene, nspheres, r, p.max_depth, rng, counters);
    }
    return acc * (1.0f / static_cast<float>(p.samples));
}

}  // namespace

std::vector<sphere> make_scene() {
    std::vector<sphere> scene;
    scene.push_back({{0.0f, -100.5f, -1.0f}, 100.0f,
                     material::make_lambertian({0.5f, 0.5f, 0.5f})});
    // 4x4 grid of small spheres with cycling materials.
    int idx = 0;
    for (int gz = 0; gz < 4; ++gz)
        for (int gx = 0; gx < 4; ++gx, ++idx) {
            const vec3 c{-1.8f + 1.2f * static_cast<float>(gx), -0.3f,
                         -2.5f + 0.9f * static_cast<float>(gz)};
            material m;
            switch (idx % 3) {
                case 0:
                    m = material::make_lambertian(
                        {0.2f + 0.15f * static_cast<float>(gx), 0.4f,
                         0.2f + 0.15f * static_cast<float>(gz)});
                    break;
                case 1:
                    m = material::make_metal(
                        {0.8f, 0.6f + 0.1f * static_cast<float>(gx % 3), 0.4f},
                        0.05f * static_cast<float>(gz));
                    break;
                default: m = material::make_dielectric(1.5f); break;
            }
            scene.push_back({c, 0.2f, m});
        }
    scene.push_back({{-1.0f, 0.3f, -1.6f}, 0.8f,
                     material::make_metal({0.85f, 0.85f, 0.9f}, 0.02f)});
    scene.push_back({{1.1f, 0.2f, -1.2f}, 0.7f, material::make_dielectric(1.5f)});
    scene.push_back({{0.1f, 0.15f, -0.6f}, 0.45f,
                     material::make_lambertian({0.7f, 0.3f, 0.25f})});
    return scene;
}

std::vector<vec3> golden(const params& p, rng_kind kind) {
    const std::vector<sphere> scene = make_scene();
    std::vector<vec3> image(p.pixels());
    // Rows are independent and every pixel seeds its own sampler, so they
    // run on the pool; each pixel's value is the same render_pixel call as
    // in a serial sweep.
    sl::thread_pool::global().parallel_for(p.height, [&](std::size_t py) {
        for (std::size_t px = 0; px < p.width; ++px)
            image[py * p.width + px] = render_pixel(
                p, scene.data(), scene.size(), kind, px, py, nullptr);
    });
    return image;
}

trace_profile probe_profile(const params& p) {
    params probe = p;
    probe.width = probe.height = 64;
    probe.samples = 2;
    const std::vector<sphere> scene = make_scene();
    trace_counters counters;
    for (std::size_t py = 0; py < probe.height; ++py)
        for (std::size_t px = 0; px < probe.width; ++px)
            render_pixel(probe, scene.data(), scene.size(), rng_kind::philox,
                         px, py, &counters);
    trace_profile out;
    const double samples =
        static_cast<double>(probe.pixels()) * probe.samples;
    out.mean_bounces = static_cast<double>(counters.rays) / samples;
    out.tests_per_ray = static_cast<double>(counters.tests) /
                        std::max(1.0, static_cast<double>(counters.rays));
    return out;
}

double image_error(std::span<const vec3> expected,
                   std::span<const vec3> got) {
    double err = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        err = worst_error(err, std::abs(static_cast<double>(got[i].x - expected[i].x)));
        err = worst_error(err, std::abs(static_cast<double>(got[i].y - expected[i].y)));
        err = worst_error(err, std::abs(static_cast<double>(got[i].z - expected[i].z)));
    }
    return err;
}

namespace detail {

perf::kernel_stats stats_render(const params& p, Variant v,
                                const perf::device_spec& dev);

}  // namespace detail

AppResult run(const RunConfig& cfg) {
    const perf::device_spec& dev = resolve_device(cfg);
    const params p = params::preset(cfg.size);
    const rng_kind kind =
        cfg.variant == Variant::cuda ? rng_kind::xorwow : rng_kind::philox;
    const auto oracle = reference_once([&] { return golden(p, kind); });
    const std::vector<vec3>& expected = *oracle;
    const std::vector<sphere> scene = make_scene();

    sl::queue q(dev, runtime_for(cfg.variant));
    if (dev.is_fpga()) q.set_design(region(cfg.variant, dev, cfg.size).all_kernels());
    // One-time context/JIT setup is excluded from the timed region (warmed up).

    sl::buffer<sphere> scene_buf(scene.size());
    q.copy_to_device(scene_buf, scene.data());
    sl::buffer<vec3> image(p.pixels());

    q.submit([&](sl::handler& h) {
        auto sc = h.get_access(scene_buf, sl::access_mode::read);
        auto img = h.get_access(image, sl::access_mode::discard_write);
        const params cp = p;
        const std::size_t nspheres = scene.size();
        const rng_kind k = kind;
        h.parallel_for(
            sl::nd_range<1>(sl::range<1>(p.pixels()),
                            sl::range<1>(dev.is_fpga() ? 128 : 256)),
            detail::stats_render(p, cfg.variant, dev), [=](sl::nd_item<1> it) {
                const std::size_t gid = it.get_global_id(0);
                img[gid] = render_pixel(cp, sc.span(0, nspheres).data(),
                                        nspheres, k, gid % cp.width,
                                        gid / cp.width, nullptr);
            });
    });
    q.wait();

    std::vector<vec3> got(p.pixels());
    q.copy_from_device(image, got.data());
    const double err = image_error(expected, got);
    require_close(err, 1e-6, "raytracing image");

    AppResult r;
    r.kernel_ms = q.kernel_ns() / 1e6;
    r.non_kernel_ms = q.non_kernel_ns() / 1e6;
    r.total_ms = q.sim_now_ns() / 1e6;
    r.error = err;
    return r;
}

void register_app() {
    register_standard_app(
        "raytracing", "Path-traced sphere scene (Listing 1 float8 materials)",
        {Variant::cuda, Variant::sycl_base, Variant::sycl_opt,
         Variant::fpga_base, Variant::fpga_opt},
        &run);
}

}  // namespace altis::apps::raytracing
