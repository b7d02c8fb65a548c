// Built-in operator vocabulary of the Gaea system-level layer. Names follow
// the paper where it names them (img_nrow, img_size_eq, composite,
// unsuperclassify, pca; Figure 4's convert-image-matrix pipeline uses '_'
// in place of '-').

#include <cmath>
#include <limits>
#include <string>

#include "raster/classify.h"
#include "raster/image_ops.h"
#include "raster/pca.h"
#include "raster/watershed.h"
#include "types/op_registry.h"

namespace gaea {

namespace {

// Unwraps a list-of-images argument into borrowed pointers. The returned
// pointers alias `args`; keep `keepalive` in scope while using them.
StatusOr<std::vector<const Image*>> ImageListArg(const Value& v,
                                                 std::vector<ImagePtr>* keepalive) {
  GAEA_ASSIGN_OR_RETURN(const ValueList* items, v.AsList());
  std::vector<const Image*> out;
  out.reserve(items->size());
  for (const Value& item : *items) {
    GAEA_ASSIGN_OR_RETURN(ImagePtr img, item.AsImage());
    if (!img) return Status::InvalidArgument("null image in list");
    keepalive->push_back(img);
    out.push_back(img.get());
  }
  return out;
}

// Narrows an integer argument to the `int` the raster kernels take. A value
// outside int range is an error rather than a wrap: unsuperclassify(bands,
// 4294967308) must not quietly run with k = 12.
StatusOr<int> IntArg(const Value& v, const char* name) {
  GAEA_ASSIGN_OR_RETURN(int64_t n, v.AsInt());
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(std::string(name) + " " +
                                   std::to_string(n) + " is out of int range");
  }
  return static_cast<int>(n);
}

Status RegisterArithmetic(OperatorRegistry* reg) {
  struct ArithOp {
    const char* name;
    double (*fn)(double, double);
  };
  static constexpr ArithOp kOps[] = {
      {"add", [](double a, double b) { return a + b; }},
      {"sub", [](double a, double b) { return a - b; }},
      {"mul", [](double a, double b) { return a * b; }},
  };
  for (const ArithOp& op : kOps) {
    auto fn = op.fn;
    GAEA_RETURN_IF_ERROR(reg->Register(
        op.name,
        OperatorSignature{{TypeId::kDouble, TypeId::kDouble},
                          TypeId::kNull,
                          false,
                          TypeId::kDouble,
                          [fn](const ValueList& args) -> StatusOr<Value> {
                            GAEA_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
                            GAEA_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
                            return Value::Double(fn(a, b));
                          },
                          "scalar arithmetic"}));
  }
  GAEA_RETURN_IF_ERROR(reg->Register(
      "div",
      OperatorSignature{{TypeId::kDouble, TypeId::kDouble},
                        TypeId::kNull,
                        false,
                        TypeId::kDouble,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
                          GAEA_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
                          if (b == 0.0) {
                            return Status::InvalidArgument("division by zero");
                          }
                          return Value::Double(a / b);
                        },
                        "scalar division"}));
  struct CmpOp {
    const char* name;
    bool (*fn)(double, double);
  };
  static constexpr CmpOp kCmps[] = {
      {"lt", [](double a, double b) { return a < b; }},
      {"le", [](double a, double b) { return a <= b; }},
      {"gt", [](double a, double b) { return a > b; }},
      {"ge", [](double a, double b) { return a >= b; }},
      {"eq", [](double a, double b) { return a == b; }},
      {"ne", [](double a, double b) { return a != b; }},
  };
  for (const CmpOp& op : kCmps) {
    auto fn = op.fn;
    GAEA_RETURN_IF_ERROR(reg->Register(
        op.name,
        OperatorSignature{{TypeId::kDouble, TypeId::kDouble},
                          TypeId::kNull,
                          false,
                          TypeId::kBool,
                          [fn](const ValueList& args) -> StatusOr<Value> {
                            GAEA_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
                            GAEA_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
                            return Value::Bool(fn(a, b));
                          },
                          "scalar comparison"}));
  }
  return Status::OK();
}

Status RegisterImageAccessors(OperatorRegistry* reg) {
  auto img_unary_int = [reg](const char* name,
                             int64_t (*fn)(const Image&)) -> Status {
    return reg->Register(
        name, OperatorSignature{{TypeId::kImage},
                                TypeId::kNull,
                                false,
                                TypeId::kInt,
                                [fn](const ValueList& args) -> StatusOr<Value> {
                                  GAEA_ASSIGN_OR_RETURN(ImagePtr img,
                                                        args[0].AsImage());
                                  return Value::Int(fn(*img));
                                },
                                "image accessor"});
  };
  GAEA_RETURN_IF_ERROR(img_unary_int(
      "img_nrow", [](const Image& i) { return static_cast<int64_t>(i.nrow()); }));
  GAEA_RETURN_IF_ERROR(img_unary_int(
      "img_ncol", [](const Image& i) { return static_cast<int64_t>(i.ncol()); }));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "img_type",
      OperatorSignature{{TypeId::kImage},
                        TypeId::kNull,
                        false,
                        TypeId::kString,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(ImagePtr img, args[0].AsImage());
                          return Value::String(PixelTypeName(img->pixel_type()));
                        },
                        "pixel data type name"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "img_size_eq",
      OperatorSignature{{TypeId::kImage, TypeId::kImage},
                        TypeId::kNull,
                        false,
                        TypeId::kBool,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(ImagePtr a, args[0].AsImage());
                          GAEA_ASSIGN_OR_RETURN(ImagePtr b, args[1].AsImage());
                          return Value::Bool(a->SameShape(*b));
                        },
                        "check if two image sizes are equal"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "img_mean",
      OperatorSignature{{TypeId::kImage},
                        TypeId::kNull,
                        false,
                        TypeId::kDouble,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(ImagePtr img, args[0].AsImage());
                          return Value::Double(img->ComputeStats().mean);
                        },
                        "mean pixel value"}));
  return Status::OK();
}

Status RegisterImageMath(OperatorRegistry* reg) {
  struct BinOp {
    const char* name;
    StatusOr<Image> (*fn)(const Image&, const Image&);
    const char* doc;
  };
  static const BinOp kOps[] = {
      {"img_add", +[](const Image& a, const Image& b) { return ImgAdd(a, b); },
       "pixel-wise sum"},
      {"img_sub",
       +[](const Image& a, const Image& b) { return ImgSubtract(a, b); },
       "pixel-wise difference"},
      {"img_mul",
       +[](const Image& a, const Image& b) { return ImgMultiply(a, b); },
       "pixel-wise product"},
      {"img_div",
       +[](const Image& a, const Image& b) { return ImgDivide(a, b, 1e-12); },
       "pixel-wise ratio (0 where denominator is 0)"},
      {"ndvi", +[](const Image& a, const Image& b) { return Ndvi(a, b); },
       "normalized difference vegetation index (nir, red)"},
  };
  for (const BinOp& op : kOps) {
    auto fn = op.fn;
    GAEA_RETURN_IF_ERROR(reg->Register(
        op.name,
        OperatorSignature{{TypeId::kImage, TypeId::kImage},
                          TypeId::kNull,
                          false,
                          TypeId::kImage,
                          [fn](const ValueList& args) -> StatusOr<Value> {
                            GAEA_ASSIGN_OR_RETURN(ImagePtr a, args[0].AsImage());
                            GAEA_ASSIGN_OR_RETURN(ImagePtr b, args[1].AsImage());
                            GAEA_ASSIGN_OR_RETURN(Image out, fn(*a, *b));
                            return Value::OfImage(std::move(out));
                          },
                          op.doc}));
  }
  GAEA_RETURN_IF_ERROR(reg->Register(
      "img_scale",
      OperatorSignature{{TypeId::kImage, TypeId::kDouble},
                        TypeId::kNull,
                        false,
                        TypeId::kImage,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(ImagePtr a, args[0].AsImage());
                          GAEA_ASSIGN_OR_RETURN(double f, args[1].AsDouble());
                          GAEA_ASSIGN_OR_RETURN(Image out, ImgScale(*a, f));
                          return Value::OfImage(std::move(out));
                        },
                        "multiply pixels by a scalar"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "img_threshold",
      OperatorSignature{{TypeId::kImage, TypeId::kDouble},
                        TypeId::kNull,
                        false,
                        TypeId::kImage,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(ImagePtr a, args[0].AsImage());
                          GAEA_ASSIGN_OR_RETURN(double t, args[1].AsDouble());
                          GAEA_ASSIGN_OR_RETURN(Image out, Threshold(*a, t));
                          return Value::OfImage(std::move(out));
                        },
                        "binary threshold"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "img_blend",
      OperatorSignature{{TypeId::kImage, TypeId::kImage, TypeId::kDouble},
                        TypeId::kNull,
                        false,
                        TypeId::kImage,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(ImagePtr a, args[0].AsImage());
                          GAEA_ASSIGN_OR_RETURN(ImagePtr b, args[1].AsImage());
                          GAEA_ASSIGN_OR_RETURN(double w, args[2].AsDouble());
                          GAEA_ASSIGN_OR_RETURN(Image out,
                                                BlendLinear(*a, *b, w));
                          return Value::OfImage(std::move(out));
                        },
                        "linear temporal interpolation between snapshots"}));
  return Status::OK();
}

Status RegisterAnalysis(OperatorRegistry* reg) {
  // composite(list of images) -> list of float8 images (validated stack).
  GAEA_RETURN_IF_ERROR(reg->Register(
      "composite",
      OperatorSignature{
          {TypeId::kList},
          TypeId::kImage,
          false,
          TypeId::kList,
          [](const ValueList& args) -> StatusOr<Value> {
            std::vector<ImagePtr> keep;
            GAEA_ASSIGN_OR_RETURN(std::vector<const Image*> bands,
                                  ImageListArg(args[0], &keep));
            GAEA_ASSIGN_OR_RETURN(std::vector<Image> stack, Composite(bands));
            ValueList out;
            out.reserve(stack.size());
            for (Image& img : stack) out.push_back(Value::OfImage(std::move(img)));
            return Value::List(std::move(out));
          },
          "stack co-registered bands (Figure 3)"}));

  // unsuperclassify(list, k) -> label image (Figure 3, process P20).
  GAEA_RETURN_IF_ERROR(reg->Register(
      "unsuperclassify",
      OperatorSignature{
          {TypeId::kList, TypeId::kInt},
          TypeId::kImage,
          false,
          TypeId::kImage,
          [](const ValueList& args) -> StatusOr<Value> {
            std::vector<ImagePtr> keep;
            GAEA_ASSIGN_OR_RETURN(std::vector<const Image*> bands,
                                  ImageListArg(args[0], &keep));
            GAEA_ASSIGN_OR_RETURN(int k, IntArg(args[1], "unsuperclassify: k"));
            GAEA_ASSIGN_OR_RETURN(Image out, UnsupervisedClassify(bands, k));
            return Value::OfImage(std::move(out));
          },
          "k-means unsupervised classification (Figure 3)"}));

  // maxlike(list, training image) -> label image.
  GAEA_RETURN_IF_ERROR(reg->Register(
      "maxlike",
      OperatorSignature{
          {TypeId::kList, TypeId::kImage},
          TypeId::kImage,
          false,
          TypeId::kImage,
          [](const ValueList& args) -> StatusOr<Value> {
            std::vector<ImagePtr> keep;
            GAEA_ASSIGN_OR_RETURN(std::vector<const Image*> bands,
                                  ImageListArg(args[0], &keep));
            GAEA_ASSIGN_OR_RETURN(ImagePtr training, args[1].AsImage());
            GAEA_ASSIGN_OR_RETURN(Image out,
                                  MaxLikelihoodClassify(bands, *training));
            return Value::OfImage(std::move(out));
          },
          "maximum likelihood supervised classification"}));

  // changemap(before, after, num_classes) -> change label image (Figure 5).
  GAEA_RETURN_IF_ERROR(reg->Register(
      "changemap",
      OperatorSignature{
          {TypeId::kImage, TypeId::kImage, TypeId::kInt},
          TypeId::kNull,
          false,
          TypeId::kImage,
          [](const ValueList& args) -> StatusOr<Value> {
            GAEA_ASSIGN_OR_RETURN(ImagePtr a, args[0].AsImage());
            GAEA_ASSIGN_OR_RETURN(ImagePtr b, args[1].AsImage());
            GAEA_ASSIGN_OR_RETURN(int k,
                                  IntArg(args[2], "changemap: num_classes"));
            GAEA_ASSIGN_OR_RETURN(Image out, ChangeMap(*a, *b, k));
            return Value::OfImage(std::move(out));
          },
          "label-transition change map (Figure 5)"}));

  // watershed(elevation) -> basin label image (Vincent & Soille [39]).
  GAEA_RETURN_IF_ERROR(reg->Register(
      "watershed",
      OperatorSignature{
          {TypeId::kImage},
          TypeId::kNull,
          false,
          TypeId::kImage,
          [](const ValueList& args) -> StatusOr<Value> {
            GAEA_ASSIGN_OR_RETURN(ImagePtr elevation, args[0].AsImage());
            GAEA_ASSIGN_OR_RETURN(WatershedResult result,
                                  Watershed(*elevation));
            return Value::OfImage(std::move(result.labels));
          },
          "immersion watershed segmentation into catchment basins"}));

  // pca(list, n) / spca(list, n) -> list of component images.
  for (bool standardized : {false, true}) {
    GAEA_RETURN_IF_ERROR(reg->Register(
        standardized ? "spca" : "pca",
        OperatorSignature{
            {TypeId::kList, TypeId::kInt},
            TypeId::kImage,
            false,
            TypeId::kList,
            [standardized](const ValueList& args) -> StatusOr<Value> {
              std::vector<ImagePtr> keep;
              GAEA_ASSIGN_OR_RETURN(std::vector<const Image*> bands,
                                    ImageListArg(args[0], &keep));
              GAEA_ASSIGN_OR_RETURN(int n, IntArg(args[1], "pca: n"));
              GAEA_ASSIGN_OR_RETURN(
                  PcaResult res, standardized ? Spca(bands, n) : Pca(bands, n));
              ValueList out;
              out.reserve(res.components.size());
              for (Image& img : res.components) {
                out.push_back(Value::OfImage(std::move(img)));
              }
              return Value::List(std::move(out));
            },
            standardized ? "standardized principal components (Eastman SPCA)"
                         : "principal components (Figure 4)"}));
  }

  // Figure 4's individual pipeline stages, exposed as first-class operators
  // so compound operators can be assembled exactly as drawn.
  GAEA_RETURN_IF_ERROR(reg->Register(
      "convert_image_matrix",
      OperatorSignature{
          {TypeId::kList},
          TypeId::kImage,
          false,
          TypeId::kMatrix,
          [](const ValueList& args) -> StatusOr<Value> {
            std::vector<ImagePtr> keep;
            GAEA_ASSIGN_OR_RETURN(std::vector<const Image*> bands,
                                  ImageListArg(args[0], &keep));
            GAEA_ASSIGN_OR_RETURN(Matrix m, ImagesToMatrix(bands));
            return Value::OfMatrix(std::move(m));
          },
          "stack band pixels into an observation matrix (Figure 4)"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "compute_covariance",
      OperatorSignature{{TypeId::kMatrix},
                        TypeId::kNull,
                        false,
                        TypeId::kMatrix,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(MatrixPtr m, args[0].AsMatrix());
                          GAEA_ASSIGN_OR_RETURN(Matrix cov, m->Covariance());
                          return Value::OfMatrix(std::move(cov));
                        },
                        "column covariance of observations (Figure 4)"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "get_eigen_vector",
      OperatorSignature{{TypeId::kMatrix},
                        TypeId::kNull,
                        false,
                        TypeId::kMatrix,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(MatrixPtr m, args[0].AsMatrix());
                          GAEA_ASSIGN_OR_RETURN(Matrix::Eigen eig,
                                                m->SymmetricEigen());
                          return Value::OfMatrix(std::move(eig.vectors));
                        },
                        "eigenvectors (columns, descending) (Figure 4)"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "linear_combination",
      OperatorSignature{
          {TypeId::kMatrix, TypeId::kMatrix},
          TypeId::kNull,
          false,
          TypeId::kMatrix,
          [](const ValueList& args) -> StatusOr<Value> {
            GAEA_ASSIGN_OR_RETURN(MatrixPtr a, args[0].AsMatrix());
            GAEA_ASSIGN_OR_RETURN(MatrixPtr b, args[1].AsMatrix());
            GAEA_ASSIGN_OR_RETURN(Matrix out, LinearCombination(*a, *b));
            return Value::OfMatrix(std::move(out));
          },
          "project observations onto loading columns (Figure 4)"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "convert_matrix_image",
      OperatorSignature{
          {TypeId::kMatrix, TypeId::kInt, TypeId::kInt},
          TypeId::kNull,
          false,
          TypeId::kList,
          [](const ValueList& args) -> StatusOr<Value> {
            GAEA_ASSIGN_OR_RETURN(MatrixPtr m, args[0].AsMatrix());
            GAEA_ASSIGN_OR_RETURN(
                int nrow, IntArg(args[1], "convert_matrix_image: nrow"));
            GAEA_ASSIGN_OR_RETURN(
                int ncol, IntArg(args[2], "convert_matrix_image: ncol"));
            GAEA_ASSIGN_OR_RETURN(std::vector<Image> imgs,
                                  MatrixToImages(*m, nrow, ncol));
            ValueList out;
            for (Image& img : imgs) out.push_back(Value::OfImage(std::move(img)));
            return Value::List(std::move(out));
          },
          "unstack matrix columns into images (Figure 4)"}));
  return Status::OK();
}

Status RegisterSpatialTemporal(OperatorRegistry* reg) {
  GAEA_RETURN_IF_ERROR(reg->Register(
      "box_overlaps",
      OperatorSignature{{TypeId::kBox, TypeId::kBox},
                        TypeId::kNull,
                        false,
                        TypeId::kBool,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(Box a, args[0].AsBox());
                          GAEA_ASSIGN_OR_RETURN(Box b, args[1].AsBox());
                          return Value::Bool(a.Overlaps(b));
                        },
                        "spatial extent overlap"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "box_union",
      OperatorSignature{{TypeId::kBox, TypeId::kBox},
                        TypeId::kNull,
                        false,
                        TypeId::kBox,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(Box a, args[0].AsBox());
                          GAEA_ASSIGN_OR_RETURN(Box b, args[1].AsBox());
                          return Value::OfBox(a.Union(b));
                        },
                        "bounding union of extents"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "box_intersect",
      OperatorSignature{{TypeId::kBox, TypeId::kBox},
                        TypeId::kNull,
                        false,
                        TypeId::kBox,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(Box a, args[0].AsBox());
                          GAEA_ASSIGN_OR_RETURN(Box b, args[1].AsBox());
                          return Value::OfBox(a.Intersect(b));
                        },
                        "intersection of extents"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "box_area",
      OperatorSignature{{TypeId::kBox},
                        TypeId::kNull,
                        false,
                        TypeId::kDouble,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(Box a, args[0].AsBox());
                          return Value::Double(a.Area());
                        },
                        "area of an extent"}));
  GAEA_RETURN_IF_ERROR(reg->Register(
      "time_diff",
      OperatorSignature{{TypeId::kTime, TypeId::kTime},
                        TypeId::kNull,
                        false,
                        TypeId::kInt,
                        [](const ValueList& args) -> StatusOr<Value> {
                          GAEA_ASSIGN_OR_RETURN(AbsTime a, args[0].AsTime());
                          GAEA_ASSIGN_OR_RETURN(AbsTime b, args[1].AsTime());
                          return Value::Int(a - b);
                        },
                        "seconds between timestamps"}));
  return Status::OK();
}

}  // namespace

Status RegisterBuiltinOperators(OperatorRegistry* reg) {
  GAEA_RETURN_IF_ERROR(RegisterArithmetic(reg));
  GAEA_RETURN_IF_ERROR(RegisterImageAccessors(reg));
  GAEA_RETURN_IF_ERROR(RegisterImageMath(reg));
  GAEA_RETURN_IF_ERROR(RegisterAnalysis(reg));
  GAEA_RETURN_IF_ERROR(RegisterSpatialTemporal(reg));
  return Status::OK();
}

}  // namespace gaea
